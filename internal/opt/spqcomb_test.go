package opt

import (
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
)

func combCfg() core.Config {
	return core.Config{
		Model:    core.ModelCombined,
		Ports:    3,
		Buffer:   4,
		MaxLabel: 4,
		Speedup:  1,
		PortWork: []int{1, 2, 3},
	}
}

// TestSPQCombAdmission pins the density push-out rule: a full buffer of
// sparse packets (value 1, work 4) makes way for a strictly denser
// arrival, but an equal- or lower-density one is dropped.
func TestSPQCombAdmission(t *testing.T) {
	s, err := NewSPQ(combCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Arrive(pkt.NewWorkValue(2, 4, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Density 1/4 arrival against density-1/4 residents: dropped.
	if err := s.Arrive(pkt.NewWorkValue(2, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Dropped != 1 || st.PushedOut != 0 {
		t.Fatalf("equal density: dropped %d pushed %d, want 1/0", st.Dropped, st.PushedOut)
	}
	// Density 3/1 arrival: evicts a sparse resident.
	if err := s.Arrive(pkt.NewWorkValue(0, 1, 3)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PushedOut != 1 || st.Accepted != 5 || st.MaxOccupancy != 4 {
		t.Errorf("pushed %d accepted %d maxocc %d, want 1/5/4", st.PushedOut, st.Accepted, st.MaxOccupancy)
	}
}

// TestSPQCombTransmitDensestFirst pins the service order: with a budget
// of 3 cores per slot, the value-3 work-1 packet and progress on the
// dense work-2 packets precede the sparse work-4 one.
func TestSPQCombTransmitDensestFirst(t *testing.T) {
	cfg := combCfg()
	cfg.Speedup = 1 // 3 ports * 1 = 3 cores
	s, err := NewSPQ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []pkt.Packet{
		pkt.NewWorkValue(0, 1, 3), // density 3
		pkt.NewWorkValue(1, 2, 4), // density 2
		pkt.NewWorkValue(2, 4, 1), // density 1/4
	} {
		if err := s.Arrive(p); err != nil {
			t.Fatal(err)
		}
	}
	s.Transmit()
	// Slot 1: cycle to (3,1) -> transmit value 3; cycle to (4,2) -> (4,1);
	// third cycle to the now-densest (4,1)? No: (4,1) was already passed
	// in the order this slot, so the remaining cycle goes to (1,4) -> (1,3).
	st := s.Stats()
	if st.Transmitted != 1 || st.TransmittedValue != 3 || st.CyclesUsed != 3 {
		t.Fatalf("slot 1: transmitted %d value %d cycles %d, want 1/3/3", st.Transmitted, st.TransmittedValue, st.CyclesUsed)
	}
	s.Transmit()
	// Slot 2: (4,1) completes crediting 4; (1,3) gets a cycle -> (1,2);
	// no third occupied cell remains un-served.
	st = s.Stats()
	if st.Transmitted != 2 || st.TransmittedValue != 7 {
		t.Fatalf("slot 2: transmitted %d value %d, want 2/7", st.Transmitted, st.TransmittedValue)
	}
	if n := s.Drain(); n != 2 {
		t.Errorf("drained in %d slots, want 2", n)
	}
	st = s.Stats()
	if st.Transmitted != 3 || st.TransmittedValue != 8 || s.Occupancy() != 0 {
		t.Errorf("final: transmitted %d value %d occ %d, want 3/8/0", st.Transmitted, st.TransmittedValue, s.Occupancy())
	}
}

// TestSPQCombDegeneracies is the projection check: under unit works a
// combined-model SPQ serves and evicts exactly like a value-model one
// (largest value first, evict the minimum), and under unit values
// exactly like a processing-model one (smallest residual first,
// evict the largest).
func TestSPQCombDegeneracies(t *testing.T) {
	t.Run("unit-works", func(t *testing.T) {
		cfg := core.Config{
			Model: core.ModelCombined, Ports: 3, Buffer: 3, MaxLabel: 5,
			Speedup: 1, PortWork: []int{1, 1, 1},
		}
		vcfg := cfg
		vcfg.Model = core.ModelValue
		vcfg.PortWork = nil
		comb, err := NewSPQ(cfg)
		if err != nil {
			t.Fatal(err)
		}
		val, err := NewSPQ(vcfg)
		if err != nil {
			t.Fatal(err)
		}
		vals := []int{2, 5, 1, 4, 4, 3, 5, 1, 2}
		for i, v := range vals {
			if err := comb.Arrive(pkt.NewWorkValue(i%3, 1, v)); err != nil {
				t.Fatal(err)
			}
			if err := val.Arrive(pkt.NewValue(i%3, v)); err != nil {
				t.Fatal(err)
			}
			if i%4 == 3 {
				comb.Transmit()
				val.Transmit()
			}
		}
		comb.Drain()
		val.Drain()
		sc, sv := comb.Stats(), val.Stats()
		if sc.TransmittedValue != sv.TransmittedValue || sc.Dropped != sv.Dropped || sc.PushedOut != sv.PushedOut {
			t.Errorf("diverged from the value-model SPQ\n comb: %+v\n  val: %+v", sc, sv)
		}
	})
	t.Run("unit-values", func(t *testing.T) {
		cfg := core.Config{
			Model: core.ModelCombined, Ports: 3, Buffer: 3, MaxLabel: 3,
			Speedup: 1, PortWork: []int{1, 2, 3},
		}
		pcfg := cfg
		pcfg.Model = core.ModelProcessing
		comb, err := NewSPQ(cfg)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := NewSPQ(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		ports := []int{2, 1, 0, 2, 2, 1, 0, 1, 2}
		for i, q := range ports {
			w := pcfg.PortWork[q]
			if err := comb.Arrive(pkt.NewWorkValue(q, w, 1)); err != nil {
				t.Fatal(err)
			}
			if err := proc.Arrive(pkt.NewWork(q, w)); err != nil {
				t.Fatal(err)
			}
			if i%4 == 3 {
				comb.Transmit()
				proc.Transmit()
			}
		}
		comb.Drain()
		proc.Drain()
		sc, sp := comb.Stats(), proc.Stats()
		if sc.Transmitted != sp.Transmitted || sc.Dropped != sp.Dropped ||
			sc.PushedOut != sp.PushedOut || sc.CyclesUsed != sp.CyclesUsed {
			t.Errorf("diverged from the processing-model SPQ\n comb: %+v\n proc: %+v", sc, sp)
		}
	})
}
