package opt

import (
	"testing"

	"smbm/internal/pkt"
)

func TestSPQProcSpeedupOverrides(t *testing.T) {
	s, err := NewSPQ(procCfg()) // 3 ports, speedup 1: 3 cores
	if err != nil {
		t.Fatal(err)
	}
	if got := s.coreBudget(); got != 3 {
		t.Fatalf("nominal budget %d, want 3", got)
	}
	s.SetPortSpeedup(0, 0)
	if got := s.coreBudget(); got != 2 {
		t.Errorf("budget with one port dark %d, want 2", got)
	}
	s.SetPortSpeedup(1, 0)
	s.SetPortSpeedup(2, 0)
	// All cores dark: nothing transmits, DrainMax reports the stall.
	if err := s.Step([]pkt.Packet{pkt.NewWork(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if tx := s.Stats().Transmitted; tx != 0 {
		t.Errorf("blacked-out proxy transmitted %d", tx)
	}
	if _, drained := s.DrainMax(8); drained {
		t.Error("drain under total blackout claimed to empty")
	}
	s.ResetSpeedups()
	if got := s.coreBudget(); got != 3 {
		t.Errorf("reset budget %d, want 3", got)
	}
	if _, drained := s.DrainMax(8); !drained {
		t.Error("restored proxy did not drain")
	}
}

func TestSPQProcBufferSqueeze(t *testing.T) {
	s, err := NewSPQ(procCfg()) // B = 4
	if err != nil {
		t.Fatal(err)
	}
	s.SetBufferLimit(2)
	for i := 0; i < 4; i++ {
		if err := s.Arrive(pkt.NewWork(2, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if occ := s.Occupancy(); occ != 2 {
		t.Errorf("squeezed occupancy %d, want 2", occ)
	}
	// A smaller packet still pushes out under the squeezed bound.
	if err := s.Arrive(pkt.NewWork(0, 1)); err != nil {
		t.Fatal(err)
	}
	if po := s.Stats().PushedOut; po != 1 {
		t.Errorf("pushed out %d, want 1", po)
	}
	if occ := s.Occupancy(); occ != 2 {
		t.Errorf("occupancy after push-out %d, want 2", occ)
	}
	s.SetBufferLimit(0)
	for i := 0; i < 2; i++ {
		if err := s.Arrive(pkt.NewWork(2, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if occ := s.Occupancy(); occ != 4 {
		t.Errorf("restored occupancy %d, want 4", occ)
	}
}

func TestSPQValOverrides(t *testing.T) {
	s, err := NewSPQ(valCfg()) // 3 ports, speedup 1, B = 4
	if err != nil {
		t.Fatal(err)
	}
	s.SetPortSpeedup(0, 0)
	s.SetPortSpeedup(1, 0)
	s.SetPortSpeedup(2, 0)
	if err := s.Step([]pkt.Packet{pkt.NewValue(0, 5), pkt.NewValue(1, 4)}); err != nil {
		t.Fatal(err)
	}
	if tx := s.Stats().Transmitted; tx != 0 {
		t.Errorf("blacked-out proxy transmitted %d", tx)
	}
	if _, drained := s.DrainMax(8); drained {
		t.Error("drain under total blackout claimed to empty")
	}
	s.ResetSpeedups()
	if _, drained := s.DrainMax(8); !drained {
		t.Error("restored proxy did not drain")
	}

	s.SetBufferLimit(1)
	if err := s.Arrive(pkt.NewValue(0, 2)); err != nil {
		t.Fatal(err)
	}
	// The buffer reads full at the squeezed limit: a cheaper packet
	// drops, a dearer one pushes out.
	if err := s.Arrive(pkt.NewValue(0, 1)); err != nil {
		t.Fatal(err)
	}
	if d := s.Stats().Dropped; d != 1 {
		t.Errorf("dropped %d, want 1", d)
	}
	if err := s.Arrive(pkt.NewValue(0, 5)); err != nil {
		t.Fatal(err)
	}
	if po := s.Stats().PushedOut; po != 1 {
		t.Errorf("pushed out %d, want 1", po)
	}
	if occ := s.Occupancy(); occ != 1 {
		t.Errorf("squeezed occupancy %d, want 1", occ)
	}
}
