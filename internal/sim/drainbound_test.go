package sim

import (
	"math"
	"testing"

	"smbm/internal/core"
)

// TestDrainBound pins the configuration-derived drain budget, defined
// once by core.Config.DrainBound and shared by the harness and the
// sharded runtime: the nominal bound is B·MaxLabel plus 64 slots of
// slack, degenerate or overflowing shapes fall back to the
// core.DrainCeiling ceiling, and the bound never exceeds that ceiling.
func TestDrainBound(t *testing.T) {
	const slack = 64
	cases := []struct {
		name   string
		buffer int
		label  int
		want   int
	}{
		{"nominal", 12, 4, 12*4 + slack},
		{"tiny", 1, 1, 1 + slack},
		{"zero-buffer", 0, 4, core.DrainCeiling},
		{"zero-label", 12, 0, core.DrainCeiling},
		{"near-ceiling", core.DrainCeiling, 1, core.DrainCeiling},
		{"overflow", math.MaxInt / 2, 8, core.DrainCeiling},
	}
	for _, c := range cases {
		cfg := core.Config{Buffer: c.buffer, MaxLabel: c.label}
		if got := DrainBound(cfg); got != c.want {
			t.Errorf("%s: DrainBound(B=%d, L=%d) = %d, want %d",
				c.name, c.buffer, c.label, got, c.want)
		}
		if got := DrainBound(cfg); got > core.DrainCeiling {
			t.Errorf("%s: bound %d exceeds ceiling", c.name, got)
		}
	}
}

// TestInstanceUsesDrainBound checks every instance replay drains under
// the configuration-derived bound.
func TestInstanceUsesDrainBound(t *testing.T) {
	cfg := core.Config{
		Model:    core.ModelProcessing,
		Ports:    2,
		Buffer:   4,
		MaxLabel: 2,
		Speedup:  1,
		PortWork: []int{1, 2},
	}
	inst := Instance{Cfg: cfg}
	if got := inst.runOptions().DrainMax; got != DrainBound(cfg) {
		t.Errorf("derived DrainMax %d, want %d", got, DrainBound(cfg))
	}
}
