package singleq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"smbm/internal/pkt"
)

func cfgPQ() Config {
	return Config{Buffer: 8, MaxWork: 4, Cores: 2, Order: OrderPQ, PushOut: true}
}

func cfgFIFO() Config {
	return Config{Buffer: 8, MaxWork: 4, Cores: 2, Order: OrderFIFO}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Config)
	}{
		{"zero buffer", func(c *Config) { c.Buffer = 0 }},
		{"zero work", func(c *Config) { c.MaxWork = 0 }},
		{"work over encoding", func(c *Config) { c.MaxWork = 300 }},
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"bad order", func(c *Config) { c.Order = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := cfgPQ()
			c.f(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if got := OrderPQ.String(); got != "PQ" {
		t.Errorf("OrderPQ.String() = %q", got)
	}
	if got := OrderFIFO.String(); got != "FIFO" {
		t.Errorf("OrderFIFO.String() = %q", got)
	}
}

func TestNames(t *testing.T) {
	pq, _ := New(cfgPQ())
	if pq.Name() != "1Q-PQ-pushout" {
		t.Errorf("name %q", pq.Name())
	}
	ff, _ := New(cfgFIFO())
	if ff.Name() != "1Q-FIFO-greedy" {
		t.Errorf("name %q", ff.Name())
	}
}

func TestPQOrderServesSmallestFirst(t *testing.T) {
	s, err := New(Config{Buffer: 8, MaxWork: 4, Cores: 1, Order: OrderPQ})
	if err != nil {
		t.Fatal(err)
	}
	// A 4 arrives first, then a 1: the core must take the 1 first.
	if err := s.Step([]pkt.Packet{pkt.NewWork(0, 4), pkt.NewWork(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Transmitted; got != 1 {
		t.Errorf("slot 0 transmitted %d, want 1 (the work-1 packet)", got)
	}
	if got := s.perClass[1].Transmitted; got != 1 {
		t.Errorf("class-1 transmitted %d", got)
	}
	s.Drain()
	if got := s.perClass[4].Transmitted; got != 1 {
		t.Errorf("class-4 transmitted %d after drain", got)
	}
}

func TestFIFOOrderServesArrivalOrder(t *testing.T) {
	s, err := New(Config{Buffer: 8, MaxWork: 4, Cores: 1, Order: OrderFIFO})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step([]pkt.Packet{pkt.NewWork(0, 4), pkt.NewWork(0, 1)}); err != nil {
		t.Fatal(err)
	}
	// The core took the 4; nothing has completed yet.
	if got := s.Stats().Transmitted; got != 0 {
		t.Errorf("slot 0 transmitted %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		s.Transmit()
	}
	if got := s.perClass[4].Transmitted; got != 1 {
		t.Errorf("class-4 transmitted %d after 4 cycles", got)
	}
	if got := s.perClass[1].Transmitted; got != 0 {
		t.Errorf("class-1 transmitted %d, want 0 (still waiting)", got)
	}
}

func TestRunToCompletionNoPreemption(t *testing.T) {
	// PQ order, one core: once the core starts a 4, a later 1 must wait
	// for completion (run-to-completion), unlike a preemptive SRPT.
	s, err := New(Config{Buffer: 8, MaxWork: 4, Cores: 1, Order: OrderPQ})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step([]pkt.Packet{pkt.NewWork(0, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Step([]pkt.Packet{pkt.NewWork(0, 1)}); err != nil {
		t.Fatal(err)
	}
	s.Transmit() // slot 2
	s.Transmit() // slot 3: the 4 completes
	if got := s.perClass[4].Transmitted; got != 1 {
		t.Errorf("class-4 transmitted %d, want 1", got)
	}
	if got := s.perClass[1].Transmitted; got != 0 {
		t.Errorf("class-1 jumped the running packet")
	}
	s.Transmit()
	if got := s.perClass[1].Transmitted; got != 1 {
		t.Errorf("class-1 not served after completion")
	}
}

func TestPushOutEvictsWorstWaiting(t *testing.T) {
	s, err := New(Config{Buffer: 3, MaxWork: 4, Cores: 1, Order: OrderPQ, PushOut: true})
	if err != nil {
		t.Fatal(err)
	}
	// Fill: works 4, 4, 2 (one of the 4s goes in service after a step).
	if err := s.Step([]pkt.Packet{pkt.NewWork(0, 4), pkt.NewWork(0, 4), pkt.NewWork(0, 2)}); err != nil {
		t.Fatal(err)
	}
	// Wait: the core holds the 2 (smallest), waiting = {4,4}. Buffer
	// occupancy 3. A work-1 arrival evicts a waiting 4.
	if err := s.Arrive(pkt.NewWork(0, 1)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PushedOut != 1 || st.Dropped != 0 {
		t.Errorf("pushed %d dropped %d, want 1/0", st.PushedOut, st.Dropped)
	}
	if got := s.perClass[4].PushedOut; got != 1 {
		t.Errorf("class-4 pushed %d", got)
	}
	// Another work-4 arrival cannot displace anything (worst waiting is
	// a 4, not strictly worse).
	if err := s.Arrive(pkt.NewWork(0, 4)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Dropped; got != 1 {
		t.Errorf("dropped %d, want 1", got)
	}
}

func TestGreedyDropsWhenFull(t *testing.T) {
	s, err := New(Config{Buffer: 2, MaxWork: 4, Cores: 1, Order: OrderFIFO})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Arrive(pkt.NewWork(0, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Dropped; got != 1 {
		t.Errorf("dropped %d, want 1", got)
	}
}

func TestFIFOLazyDeletionAfterEviction(t *testing.T) {
	s, err := New(Config{Buffer: 2, MaxWork: 4, Cores: 1, Order: OrderFIFO, PushOut: true})
	if err != nil {
		t.Fatal(err)
	}
	// Two 4s fill the buffer; a 1 evicts the younger 4. The stale FIFO
	// entry must be skipped when cores pull.
	if err := s.ArriveBurstForTest(t, []pkt.Packet{pkt.NewWork(0, 4), pkt.NewWork(0, 4), pkt.NewWork(0, 1)}); err != nil {
		t.Fatal(err)
	}
	s.Transmit() // core takes the older 4
	s.Drain()
	st := s.Stats()
	if st.Transmitted != 2 {
		t.Errorf("transmitted %d, want 2 (one 4 + the 1)", st.Transmitted)
	}
	if s.perClass[4].Transmitted != 1 || s.perClass[1].Transmitted != 1 {
		t.Errorf("per-class transmissions: %+v", s.ClassCounters())
	}
}

// ArriveBurstForTest offers packets in order, stopping at the first error.
func (s *Switch) ArriveBurstForTest(t *testing.T, ps []pkt.Packet) error {
	t.Helper()
	for _, p := range ps {
		if err := s.Arrive(p); err != nil {
			return err
		}
	}
	return nil
}

func TestInvalidWork(t *testing.T) {
	s, err := New(cfgPQ())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Arrive(pkt.NewWork(0, 9)); err == nil {
		t.Error("work beyond MaxWork accepted")
	}
}

func TestResetAndReuse(t *testing.T) {
	s, err := New(cfgPQ())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step([]pkt.Packet{pkt.NewWork(0, 3)}); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.Occupancy() != 0 || s.Stats().Arrived != 0 {
		t.Error("Reset left state behind")
	}
	if err := s.Step([]pkt.Packet{pkt.NewWork(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Transmitted; got != 1 {
		t.Errorf("post-reset transmitted %d", got)
	}
}

// TestQuickConservation: arrivals = accepted + dropped; accepted =
// transmitted + pushed out after a drain; occupancy never exceeds B.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64, pushOut bool, fifo bool) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Buffer: 2 + rng.Intn(8), MaxWork: 4, Cores: 1 + rng.Intn(3), PushOut: pushOut, Order: OrderPQ}
		if fifo {
			cfg.Order = OrderFIFO
		}
		s, err := New(cfg)
		if err != nil {
			return false
		}
		for slot := 0; slot < 60; slot++ {
			burst := make([]pkt.Packet, rng.Intn(5))
			for i := range burst {
				burst[i] = pkt.NewWork(0, 1+rng.Intn(cfg.MaxWork))
			}
			if err := s.Step(burst); err != nil {
				return false
			}
			if s.Occupancy() > cfg.Buffer {
				return false
			}
		}
		s.Drain()
		st := s.Stats()
		if st.Arrived != st.Accepted+st.Dropped {
			return false
		}
		if st.Accepted != st.Transmitted+st.PushedOut {
			return false
		}
		var perClass int64
		for _, c := range s.ClassCounters() {
			perClass += c.Transmitted
		}
		return perClass == st.Transmitted && s.Occupancy() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// TestPQStarvesHeavyClasses reproduces the paper's motivation: under
// sustained overload of light packets, single-queue PQ never serves the
// heavy class, while FIFO does.
func TestPQStarvesHeavyClasses(t *testing.T) {
	run := func(order Order) (heavy int64) {
		s, err := New(Config{Buffer: 16, MaxWork: 4, Cores: 1, Order: order, PushOut: false})
		if err != nil {
			t.Fatal(err)
		}
		// Light packets precede the heavy one, so a PQ core always has
		// a cheaper candidate when it frees.
		if err := s.Step([]pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(0, 1), pkt.NewWork(0, 4)}); err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 200; slot++ {
			if err := s.Step([]pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(0, 1)}); err != nil {
				t.Fatal(err)
			}
		}
		return s.ClassCounters()[4].Transmitted
	}
	if got := run(OrderPQ); got != 0 {
		t.Errorf("PQ served %d heavy packets under light overload, want 0", got)
	}
	if got := run(OrderFIFO); got != 1 {
		t.Errorf("FIFO served %d heavy packets, want 1", got)
	}
}
