package opt

import (
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
)

func procCfg() core.Config {
	return core.Config{
		Model:    core.ModelProcessing,
		Ports:    3,
		Buffer:   4,
		MaxLabel: 3,
		Speedup:  1,
		PortWork: []int{1, 2, 3},
	}
}

func valCfg() core.Config {
	return core.Config{
		Model:    core.ModelValue,
		Ports:    3,
		Buffer:   4,
		MaxLabel: 5,
		Speedup:  1,
	}
}

func TestNewSPQRejectsWrongModel(t *testing.T) {
	cfg := procCfg()
	cfg.Model = core.Model(99)
	if _, err := NewSPQ(cfg); err == nil {
		t.Error("SPQ accepted an unknown model")
	}
	if _, err := NewSPQ(core.Config{}); err == nil {
		t.Error("SPQ accepted a zero config")
	}
}

func TestSPQProcAdmission(t *testing.T) {
	s, err := NewSPQ(procCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fill with four work-3 packets, then offer a work-1: the largest
	// residual must make way.
	for i := 0; i < 4; i++ {
		if err := s.Arrive(pkt.NewWork(2, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Arrive(pkt.NewWork(0, 1)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PushedOut != 1 || st.Accepted != 5 {
		t.Errorf("pushed %d accepted %d, want 1/5", st.PushedOut, st.Accepted)
	}
	if s.Occupancy() != 4 {
		t.Errorf("occupancy %d, want 4", s.Occupancy())
	}
	// A work-3 packet cannot displace anything now (worst residual 3).
	if err := s.Arrive(pkt.NewWork(2, 3)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Dropped; got != 1 {
		t.Errorf("dropped %d, want 1", got)
	}
}

func TestSPQProcServesSmallestFirst(t *testing.T) {
	// 3 cores (3 ports x speedup 1); packets of works 1, 2, 3, 3.
	s, err := NewSPQ(procCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{3, 1, 2, 3} {
		if err := s.Arrive(pkt.NewWork(w-1, w)); err != nil {
			t.Fatal(err)
		}
	}
	s.Transmit()
	// Cores serve residuals {1,2,3}; the work-1 packet completes.
	if got := s.Stats().Transmitted; got != 1 {
		t.Errorf("transmitted %d, want 1", got)
	}
	s.Transmit()
	// Residuals were {1,2,3}: the former work-2 completes.
	if got := s.Stats().Transmitted; got != 2 {
		t.Errorf("transmitted %d, want 2", got)
	}
	if got := s.Drain(); got != 2 {
		t.Errorf("drain took %d slots, want 2", got)
	}
	if got := s.Stats().Transmitted; got != 4 {
		t.Errorf("total transmitted %d, want 4", got)
	}
}

func TestSPQProcOneCyclePerPacketPerSlot(t *testing.T) {
	// 4 packets of work 2, 3 cores: a packet cannot absorb two cycles
	// in one slot, so slot 1 completes nothing.
	s, err := NewSPQ(procCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Arrive(pkt.NewWork(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	s.Transmit()
	if got := s.Stats().Transmitted; got != 0 {
		t.Errorf("slot 1 transmitted %d, want 0", got)
	}
	if got := s.Stats().CyclesUsed; got != 3 {
		t.Errorf("cycles used %d, want 3", got)
	}
	s.Transmit()
	// Residuals now {1,1,1,2}: three cores finish the three 1s.
	if got := s.Stats().Transmitted; got != 3 {
		t.Errorf("slot 2 transmitted %d, want 3", got)
	}
}

func TestSPQProcReset(t *testing.T) {
	s, err := NewSPQ(procCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step([]pkt.Packet{pkt.NewWork(0, 1)}); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.Occupancy() != 0 || s.Stats().Arrived != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestSPQValAdmissionAndOrder(t *testing.T) {
	s, err := NewSPQ(valCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{2, 4, 1, 3} {
		if err := s.Arrive(pkt.NewValue(0, v)); err != nil {
			t.Fatal(err)
		}
	}
	// Buffer full; a 5 displaces the 1, another 1 is dropped.
	if err := s.Arrive(pkt.NewValue(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Arrive(pkt.NewValue(1, 1)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PushedOut != 1 || st.Dropped != 1 {
		t.Errorf("pushed %d dropped %d, want 1/1", st.PushedOut, st.Dropped)
	}
	// 3 cores: the top three values {5,4,3} go first.
	s.Transmit()
	if got := s.Stats().TransmittedValue; got != 12 {
		t.Errorf("slot 1 value %d, want 12", got)
	}
	if got := s.Drain(); got != 1 {
		t.Errorf("drain took %d slots, want 1", got)
	}
	if got := s.Stats().TransmittedValue; got != 14 {
		t.Errorf("total value %d, want 14", got)
	}
}

func TestSPQValReset(t *testing.T) {
	s, err := NewSPQ(valCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step([]pkt.Packet{pkt.NewValue(0, 3)}); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.Occupancy() != 0 || s.Stats().Arrived != 0 {
		t.Error("Reset did not clear state")
	}
	if s.Name() == "" {
		t.Error("empty name")
	}
}

func TestSPQRejectsInvalidPackets(t *testing.T) {
	s, err := NewSPQ(procCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Arrive(pkt.NewWork(9, 1)); err == nil {
		t.Error("invalid port accepted")
	}
	v, err := NewSPQ(valCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Arrive(pkt.NewValue(0, 99)); err == nil {
		t.Error("invalid value accepted")
	}
}
