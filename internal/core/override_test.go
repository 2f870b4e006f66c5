package core

import (
	"strings"
	"testing"

	"smbm/internal/pkt"
)

func overrideCfg() Config {
	return Config{
		Model:    ModelProcessing,
		Ports:    2,
		Buffer:   8,
		MaxLabel: 2,
		Speedup:  2,
		PortWork: []int{1, 2},
	}
}

func TestSetPortSpeedupBlackout(t *testing.T) {
	s := MustNew(overrideCfg(), greedy)
	s.SetPortSpeedup(0, 0)
	for i := 0; i < 3; i++ {
		if err := s.Step([]pkt.Packet{pkt.NewWork(0, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if tx := s.Stats().Transmitted; tx != 0 {
		t.Errorf("blacked-out port transmitted %d packets", tx)
	}
	if s.Occupancy() != 3 {
		t.Errorf("occupancy %d, want 3", s.Occupancy())
	}
	// DrainMax reports the stuck drain instead of looping forever.
	if slots, drained := s.DrainMax(16); drained {
		t.Errorf("drain under blackout claimed to empty in %d slots", slots)
	}
	// Restoring the nominal speedup lets the buffer empty.
	s.SetPortSpeedup(0, -1)
	if _, drained := s.DrainMax(16); !drained {
		t.Error("restored port did not drain")
	}
	if tx := s.Stats().Transmitted; tx != 3 {
		t.Errorf("transmitted %d after drain, want 3", tx)
	}
}

func TestSetPortSpeedupSlowdownAndReset(t *testing.T) {
	s := MustNew(overrideCfg(), greedy)
	// Port 1 needs 2 cycles per packet; at nominal speedup 2 it
	// transmits one packet per slot, at C'=1 one packet per two slots.
	s.SetPortSpeedup(1, 1)
	burst := pkt.Burst(pkt.NewWork(1, 2), 4)
	if err := s.Step(burst); err != nil {
		t.Fatal(err)
	}
	if tx := s.Stats().Transmitted; tx != 0 {
		t.Errorf("slowed port finished %d packets in one slot", tx)
	}
	if err := s.Step(nil); err != nil {
		t.Fatal(err)
	}
	if tx := s.Stats().Transmitted; tx != 1 {
		t.Errorf("slowed port transmitted %d packets in two slots, want 1", tx)
	}
	s.ResetSpeedups()
	if err := s.Step(nil); err != nil {
		t.Fatal(err)
	}
	if tx := s.Stats().Transmitted; tx != 2 {
		t.Errorf("restored port transmitted %d packets, want 2", tx)
	}
}

func TestSetPortSpeedupPanicsOutOfRange(t *testing.T) {
	s := MustNew(overrideCfg(), greedy)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-range port accepted")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "out of") {
			t.Errorf("panic %v does not name the range", r)
		}
	}()
	s.SetPortSpeedup(2, 1)
}

func TestSetBufferLimitSqueezesView(t *testing.T) {
	s := MustNew(overrideCfg(), greedy)
	if err := s.ArriveBatch(pkt.Burst(pkt.NewWork(0, 1), 6)); err != nil {
		t.Fatal(err)
	}
	s.SetBufferLimit(4)
	if got := s.Buffer(); got != 4 {
		t.Errorf("squeezed Buffer() = %d, want 4", got)
	}
	// Occupancy above the transient limit reads as full, never negative.
	if got := s.Free(); got != 0 {
		t.Errorf("squeezed Free() = %d, want 0", got)
	}
	// Greedy (non-push-out) tail-drops against the squeezed buffer.
	if err := s.Arrive(pkt.NewWork(0, 1)); err != nil {
		t.Fatal(err)
	}
	if d := s.Stats().Dropped; d != 1 {
		t.Errorf("dropped %d, want 1", d)
	}
	if s.Occupancy() != 6 {
		t.Errorf("occupancy %d changed by a squeezed drop", s.Occupancy())
	}
	// Lifting the squeeze restores the configured buffer.
	s.SetBufferLimit(0)
	if got := s.Buffer(); got != 8 {
		t.Errorf("restored Buffer() = %d, want 8", got)
	}
	if got := s.Free(); got != 2 {
		t.Errorf("restored Free() = %d, want 2", got)
	}
	// A limit at or above the configured B is a no-op.
	s.SetBufferLimit(100)
	if got := s.Buffer(); got != 8 {
		t.Errorf("oversized limit changed Buffer() to %d", got)
	}
}

func TestSqueezeAllowsPushOutAdmissions(t *testing.T) {
	// A push-out policy stays occupancy-neutral, so admissions remain
	// legal even when occupancy already exceeds the squeezed limit.
	s := MustNew(overrideCfg(), evictFrom(0))
	if err := s.ArriveBatch(pkt.Burst(pkt.NewWork(0, 1), 6)); err != nil {
		t.Fatal(err)
	}
	s.SetBufferLimit(2)
	if err := s.Arrive(pkt.NewWork(0, 1)); err != nil {
		t.Fatalf("push-out admission under squeeze rejected: %v", err)
	}
	if s.Occupancy() != 6 {
		t.Errorf("occupancy %d, want 6 (push-out is occupancy-neutral)", s.Occupancy())
	}
	if po := s.Stats().PushedOut; po != 1 {
		t.Errorf("pushed out %d, want 1", po)
	}
}

func TestResetClearsOverrides(t *testing.T) {
	s := MustNew(overrideCfg(), greedy)
	s.SetPortSpeedup(0, 0)
	s.SetBufferLimit(2)
	s.Reset()
	if got := s.Buffer(); got != 8 {
		t.Errorf("Reset left buffer limit: Buffer() = %d", got)
	}
	if err := s.Step([]pkt.Packet{pkt.NewWork(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if tx := s.Stats().Transmitted; tx != 1 {
		t.Errorf("Reset left speedup override: transmitted %d, want 1", tx)
	}
}
