package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/traffic"
)

// buildCell returns a deterministic tiny instance whose trace depends on
// x and seed, exercising the sweep plumbing end to end.
func buildCell(x int, seed int64) (Instance, error) {
	cfg := core.Config{
		Model:    core.ModelProcessing,
		Ports:    2,
		Buffer:   4,
		MaxLabel: 2,
		Speedup:  1,
		PortWork: []int{1, 2},
	}
	burst := pkt.Concat(
		pkt.Burst(pkt.NewWork(0, 1), x+int(seed%3)),
		pkt.Burst(pkt.NewWork(1, 2), x),
	)
	return Instance{
		Cfg:      cfg,
		Policies: []core.Policy{policy.Greedy{}, policy.LWD{}},
		Provider: traffic.Slots(burst, nil),
	}, nil
}

func testSweep() *Sweep {
	return &Sweep{
		Name:     "test",
		XLabel:   "x",
		Xs:       []int{2, 4, 8},
		Seeds:    3,
		BaseSeed: 1,
		Build:    buildCell,
	}
}

func TestSweepRun(t *testing.T) {
	res, err := testSweep().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points %d, want 3", len(res.Points))
	}
	if !reflect.DeepEqual(res.Policies, []string{"Greedy", "LWD"}) {
		t.Errorf("policies %v", res.Policies)
	}
	for i, p := range res.Points {
		if p.X != testSweep().Xs[i] {
			t.Errorf("point %d X=%d", i, p.X)
		}
		for _, name := range res.Policies {
			s, ok := p.Ratio[name]
			if !ok || s.N != 3 {
				t.Errorf("point %d policy %s: summary %+v", i, name, s)
			}
			if s.Mean < 1.0-1e-9 {
				// The OPT proxy can in principle be edged out on tiny
				// instances, but not on these saturating bursts.
				t.Errorf("point %d %s mean ratio %v < 1", i, name, s.Mean)
			}
		}
		if p.OptThroughput.N != 3 {
			t.Errorf("opt summary %+v", p.OptThroughput)
		}
	}
}

func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	serial := testSweep()
	serial.Parallelism = 1
	parallel := testSweep()
	parallel.Parallelism = 8
	r1, err := serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := parallel.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("sweep results depend on parallelism")
	}
}

func TestSweepValidation(t *testing.T) {
	s := testSweep()
	s.Xs = nil
	if _, err := s.Run(); err == nil {
		t.Error("empty Xs accepted")
	}
	s = testSweep()
	s.Seeds = 0
	if _, err := s.Run(); err == nil {
		t.Error("zero seeds accepted")
	}
	s = testSweep()
	s.Build = nil
	if _, err := s.Run(); err == nil {
		t.Error("nil Build accepted")
	}
}

func TestSweepPropagatesBuildErrors(t *testing.T) {
	s := testSweep()
	boom := errors.New("boom")
	s.Build = func(x int, seed int64) (Instance, error) { return Instance{}, boom }
	if _, err := s.Run(); err == nil || !errors.Is(err, boom) {
		t.Errorf("got %v, want wrapped boom", err)
	}
}

// TestSweepTableAndSeries checks the rendered table and the series of
// points behind it: one point per x in order, each carrying every
// policy's ratio.
func TestSweepTableAndSeries(t *testing.T) {
	res, err := testSweep().Run()
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table()
	if !strings.Contains(table, "LWD") || !strings.Contains(table, "Greedy") {
		t.Errorf("table missing policies:\n%s", table)
	}
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) != 2+3 {
		t.Errorf("table has %d lines:\n%s", len(lines), table)
	}
	if len(res.Points) != 3 || res.Points[0].X != 2 || res.Points[2].X != 8 {
		t.Fatalf("points %+v, want xs 2..8", res.Points)
	}
	for _, pt := range res.Points {
		if _, ok := pt.Ratio["LWD"]; !ok {
			t.Errorf("point %d has no LWD ratio", pt.X)
		}
	}
}
