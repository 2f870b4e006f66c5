package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"smbm/internal/pkt"
)

// greedy is a minimal in-package test policy: accept while space remains.
var greedy = PolicyFunc{PolicyName: "greedy", Func: func(v View, _ pkt.Packet) Decision {
	if v.Free() > 0 {
		return Accept()
	}
	return Drop()
}}

// evictFrom returns a policy that always pushes out from the fixed queue.
func evictFrom(victim int) Policy {
	return PolicyFunc{PolicyName: "evictor", Func: func(v View, _ pkt.Packet) Decision {
		if v.Free() > 0 {
			return Accept()
		}
		return PushOut(victim)
	}}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(Config{}, greedy); err == nil {
		t.Error("New with zero config succeeded")
	}
	if _, err := New(validProcCfg(), nil); err == nil {
		t.Error("New with nil policy succeeded")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{}, greedy)
}

func TestArriveValidatesPackets(t *testing.T) {
	sw := MustNew(validProcCfg(), greedy)
	if err := sw.Arrive(pkt.NewWork(99, 1)); err == nil {
		t.Error("out-of-range port accepted")
	}
	// Port 1 is configured for work 2; a work-3 packet is inconsistent.
	if err := sw.Arrive(pkt.NewWork(1, 3)); err == nil {
		t.Error("work/port mismatch accepted")
	}
}

func TestProcessingTransmission(t *testing.T) {
	// One port with work 3, speedup 1: a packet takes 3 slots.
	cfg := Config{Model: ModelProcessing, Ports: 1, Buffer: 4, MaxLabel: 3, Speedup: 1, PortWork: []int{3}}
	sw := MustNew(cfg, greedy)
	if err := sw.Arrive(pkt.NewWork(0, 3)); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 2; slot++ {
		sw.Transmit()
		if got := sw.Stats().Transmitted; got != 0 {
			t.Fatalf("slot %d: transmitted %d, want 0", slot, got)
		}
	}
	sw.Transmit()
	if got := sw.Stats().Transmitted; got != 1 {
		t.Errorf("after 3 slots: transmitted %d, want 1", got)
	}
	if sw.Occupancy() != 0 {
		t.Errorf("occupancy %d, want 0", sw.Occupancy())
	}
}

func TestProcessingSpeedupChains(t *testing.T) {
	// Speedup 5 on a work-2 port: two packets complete in one slot and
	// the fifth cycle starts the third packet.
	cfg := Config{Model: ModelProcessing, Ports: 1, Buffer: 8, MaxLabel: 2, Speedup: 5, PortWork: []int{2}}
	sw := MustNew(cfg, greedy)
	for i := 0; i < 3; i++ {
		if err := sw.Arrive(pkt.NewWork(0, 2)); err != nil {
			t.Fatal(err)
		}
	}
	sw.Transmit()
	st := sw.Stats()
	if st.Transmitted != 2 {
		t.Errorf("transmitted %d, want 2", st.Transmitted)
	}
	if st.CyclesUsed != 5 {
		t.Errorf("cycles used %d, want 5", st.CyclesUsed)
	}
	if got := sw.QueueWork(0); got != 1 {
		t.Errorf("residual work %d, want 1 (third packet half done)", got)
	}
	sw.Transmit()
	if got := sw.Stats().Transmitted; got != 3 {
		t.Errorf("after second slot: transmitted %d, want 3", got)
	}
}

func TestProcessingFIFOLatency(t *testing.T) {
	cfg := Config{Model: ModelProcessing, Ports: 1, Buffer: 4, MaxLabel: 1, Speedup: 1, PortWork: []int{1}}
	sw := MustNew(cfg, greedy)
	// Two packets in slot 0: latencies 0 and 1. One packet in slot 1,
	// behind the second: latency 1.
	if err := sw.Step([]pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Step([]pkt.Packet{pkt.NewWork(0, 1)}); err != nil {
		t.Fatal(err)
	}
	sw.Drain()
	st := sw.Stats()
	if st.Transmitted != 3 {
		t.Fatalf("transmitted %d, want 3", st.Transmitted)
	}
	if st.LatencySlots != 0+1+1 {
		t.Errorf("latency sum %d, want 2", st.LatencySlots)
	}
}

func TestPushOutTailSemantics(t *testing.T) {
	// Two ports, buffer 2. Fill with port 0, then force eviction from
	// queue 0 when port 1 traffic arrives.
	cfg := Config{Model: ModelProcessing, Ports: 2, Buffer: 2, MaxLabel: 2, Speedup: 1, PortWork: []int{2, 2}}
	sw := MustNew(cfg, evictFrom(0))
	if err := sw.ArriveBatch(pkt.Burst(pkt.NewWork(0, 2), 2)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Arrive(pkt.NewWork(1, 2)); err != nil {
		t.Fatal(err)
	}
	if got := sw.QueueLen(0); got != 1 {
		t.Errorf("queue 0 len %d, want 1 after tail push-out", got)
	}
	if got := sw.QueueLen(1); got != 1 {
		t.Errorf("queue 1 len %d, want 1", got)
	}
	if got := sw.Stats().PushedOut; got != 1 {
		t.Errorf("pushed out %d, want 1", got)
	}
}

func TestPushOutLastPacketResetsResidual(t *testing.T) {
	// A partially processed head-of-line packet is evicted; the cycles
	// spent are wasted and the queue's residual resets.
	cfg := Config{Model: ModelProcessing, Ports: 2, Buffer: 2, MaxLabel: 4, Speedup: 1, PortWork: []int{4, 4}}
	sw := MustNew(cfg, evictFrom(0))
	if err := sw.ArriveBatch([]pkt.Packet{pkt.NewWork(0, 4), pkt.NewWork(1, 4)}); err != nil {
		t.Fatal(err)
	}
	sw.Transmit() // both HOL packets now have residual 3
	if got := sw.QueueWork(0); got != 3 {
		t.Fatalf("queue 0 residual %d, want 3", got)
	}
	if err := sw.Arrive(pkt.NewWork(1, 4)); err != nil {
		t.Fatal(err)
	}
	if got := sw.QueueLen(0); got != 0 {
		t.Errorf("queue 0 len %d, want 0", got)
	}
	if got := sw.QueueWork(0); got != 0 {
		t.Errorf("queue 0 residual %d, want 0 after evicting its only packet", got)
	}
	if got := sw.QueueWork(1); got != 3+4 {
		t.Errorf("queue 1 residual %d, want 7", got)
	}
}

func TestPolicyErrorsSurface(t *testing.T) {
	t.Run("accept into full buffer", func(t *testing.T) {
		alwaysAccept := PolicyFunc{PolicyName: "bad", Func: func(View, pkt.Packet) Decision { return Accept() }}
		cfg := Config{Model: ModelProcessing, Ports: 1, Buffer: 1, MaxLabel: 1, Speedup: 1, PortWork: []int{1}}
		sw := MustNew(cfg, alwaysAccept)
		if err := sw.Arrive(pkt.NewWork(0, 1)); err != nil {
			t.Fatal(err)
		}
		if err := sw.Arrive(pkt.NewWork(0, 1)); err == nil {
			t.Error("accepting into a full buffer did not error")
		}
	})
	t.Run("evict from empty queue", func(t *testing.T) {
		cfg := Config{Model: ModelProcessing, Ports: 2, Buffer: 2, MaxLabel: 1, Speedup: 1, PortWork: []int{1, 1}}
		sw := MustNew(cfg, evictFrom(1)) // queue 1 stays empty
		if err := sw.ArriveBatch(pkt.Burst(pkt.NewWork(0, 1), 2)); err != nil {
			t.Fatal(err)
		}
		err := sw.Arrive(pkt.NewWork(0, 1))
		if err == nil {
			t.Fatal("eviction from empty queue did not error")
		}
		if !strings.Contains(err.Error(), "empty queue") {
			t.Errorf("error %q does not mention the empty queue", err)
		}
	})
	t.Run("victim out of range", func(t *testing.T) {
		cfg := Config{Model: ModelProcessing, Ports: 1, Buffer: 1, MaxLabel: 1, Speedup: 1, PortWork: []int{1}}
		sw := MustNew(cfg, evictFrom(7))
		if err := sw.Arrive(pkt.NewWork(0, 1)); err != nil {
			t.Fatal(err)
		}
		if err := sw.Arrive(pkt.NewWork(0, 1)); err == nil {
			t.Error("out-of-range victim did not error")
		}
	})
}

func TestValueModelTransmitsMaxFirst(t *testing.T) {
	cfg := Config{Model: ModelValue, Ports: 1, Buffer: 4, MaxLabel: 9, Speedup: 1}
	sw := MustNew(cfg, greedy)
	for _, v := range []int{3, 9, 1} {
		if err := sw.Arrive(pkt.NewValue(0, v)); err != nil {
			t.Fatal(err)
		}
	}
	sw.Transmit()
	if got := sw.Stats().TransmittedValue; got != 9 {
		t.Errorf("first transmission value %d, want 9", got)
	}
	if got := sw.QueueMaxValue(0); got != 3 {
		t.Errorf("remaining max %d, want 3", got)
	}
	if got := sw.QueueMinValue(0); got != 1 {
		t.Errorf("remaining min %d, want 1", got)
	}
	if got := sw.QueueValueSum(0); got != 4 {
		t.Errorf("remaining sum %d, want 4", got)
	}
}

func TestValueModelEvictsMin(t *testing.T) {
	cfg := Config{Model: ModelValue, Ports: 2, Buffer: 2, MaxLabel: 9, Speedup: 1}
	sw := MustNew(cfg, evictFrom(0))
	if err := sw.ArriveBatch([]pkt.Packet{pkt.NewValue(0, 5), pkt.NewValue(0, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Arrive(pkt.NewValue(1, 9)); err != nil {
		t.Fatal(err)
	}
	if got := sw.QueueMinValue(0); got != 5 {
		t.Errorf("queue 0 min after eviction = %d, want 5 (the 2 was evicted)", got)
	}
}

func TestValueModelSpeedup(t *testing.T) {
	cfg := Config{Model: ModelValue, Ports: 1, Buffer: 8, MaxLabel: 8, Speedup: 3}
	sw := MustNew(cfg, greedy)
	for v := 1; v <= 5; v++ {
		if err := sw.Arrive(pkt.NewValue(0, v)); err != nil {
			t.Fatal(err)
		}
	}
	sw.Transmit()
	st := sw.Stats()
	if st.Transmitted != 3 {
		t.Errorf("transmitted %d, want 3", st.Transmitted)
	}
	if st.TransmittedValue != 5+4+3 {
		t.Errorf("transmitted value %d, want 12", st.TransmittedValue)
	}
}

func TestDrainAndReset(t *testing.T) {
	cfg := validProcCfg()
	sw := MustNew(cfg, greedy)
	if err := sw.ArriveBatch([]pkt.Packet{pkt.NewWork(3, 6), pkt.NewWork(0, 1)}); err != nil {
		t.Fatal(err)
	}
	slots := sw.Drain()
	if slots != 6 {
		t.Errorf("drain took %d slots, want 6 (the IPsec packet)", slots)
	}
	if sw.Occupancy() != 0 {
		t.Errorf("occupancy %d after drain", sw.Occupancy())
	}
	sw.Reset()
	st := sw.Stats()
	if st.Arrived != 0 || st.Transmitted != 0 || sw.Slot() != 0 {
		t.Errorf("Reset left stats %+v slot %d", st, sw.Slot())
	}
	// The switch is reusable after Reset.
	if err := sw.Arrive(pkt.NewWork(0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := sw.Occupancy(); got != 1 {
		t.Errorf("occupancy %d, want 1", got)
	}
}

func TestViewAccessors(t *testing.T) {
	cfg := validProcCfg()
	sw := MustNew(cfg, greedy)
	if sw.Model() != ModelProcessing || sw.Ports() != 4 || sw.Buffer() != 8 || sw.MaxLabel() != 6 {
		t.Error("view accessors disagree with config")
	}
	if err := sw.ArriveBatch([]pkt.Packet{pkt.NewWork(2, 3), pkt.NewWork(2, 3)}); err != nil {
		t.Fatal(err)
	}
	if got := sw.QueueLen(2); got != 2 {
		t.Errorf("QueueLen(2) = %d, want 2", got)
	}
	if got := sw.QueueWork(2); got != 6 {
		t.Errorf("QueueWork(2) = %d, want 6", got)
	}
	if got := sw.Free(); got != 6 {
		t.Errorf("Free() = %d, want 6", got)
	}
	// Processing-model value accessors degrade to unit values.
	if got := sw.QueueMinValue(2); got != 1 {
		t.Errorf("QueueMinValue(2) = %d, want 1", got)
	}
	if got := sw.QueueMinValue(0); got != 0 {
		t.Errorf("QueueMinValue(0) on empty = %d, want 0", got)
	}
	if got := sw.QueueMaxValue(2); got != 1 {
		t.Errorf("QueueMaxValue(2) = %d, want 1", got)
	}
	if got := sw.QueueValueSum(2); got != 2 {
		t.Errorf("QueueValueSum(2) = %d, want 2", got)
	}
	if sw.Name() != "greedy" {
		t.Errorf("Name() = %q", sw.Name())
	}
	if sw.Config().Ports != 4 {
		t.Error("Config() accessor broken")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Transmitted: 10, TransmittedValue: 70, Arrived: 40, LatencySlots: 30}
	if got := s.Throughput(ModelProcessing); got != 10 {
		t.Errorf("Throughput(processing) = %d", got)
	}
	if got := s.Throughput(ModelValue); got != 70 {
		t.Errorf("Throughput(value) = %d", got)
	}
	if got := s.LossRate(); got != 0.75 {
		t.Errorf("LossRate() = %v, want 0.75", got)
	}
	if got := s.MeanLatency(); got != 3 {
		t.Errorf("MeanLatency() = %v, want 3", got)
	}
	var zero Stats
	if zero.LossRate() != 0 || zero.MeanLatency() != 0 {
		t.Error("zero stats helpers should return 0")
	}
}

func TestPortCountersProcessing(t *testing.T) {
	cfg := validProcCfg()
	sw := MustNew(cfg, greedy)
	if err := sw.Step([]pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(0, 1), pkt.NewWork(3, 6)}); err != nil {
		t.Fatal(err)
	}
	sw.Drain()
	pc := sw.PortCounters()
	if pc[0].Arrived != 2 || pc[0].Transmitted != 2 {
		t.Errorf("port 0 counters %+v", pc[0])
	}
	if pc[3].Transmitted != 1 || pc[3].LatencySlots != 5 || pc[3].MaxLatency != 5 {
		t.Errorf("port 3 counters %+v", pc[3])
	}
	if got := pc[0].MeanLatency(); got != 0.5 {
		t.Errorf("port 0 mean latency %v, want 0.5", got)
	}
	if got := pc[1].DeliveryRate(); got != 1 {
		t.Errorf("idle port delivery %v, want 1", got)
	}
	// The returned slice is a copy.
	pc[0].Arrived = 999
	if sw.PortCounters()[0].Arrived == 999 {
		t.Error("PortCounters aliases internal state")
	}
}

func TestPortCountersValueModel(t *testing.T) {
	cfg := validValCfg()
	sw := MustNew(cfg, evictFrom(0))
	if err := sw.ArriveBatch(pkt.Burst(pkt.NewValue(0, 2), 8)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Arrive(pkt.NewValue(1, 4)); err != nil {
		t.Fatal(err)
	}
	sw.Drain()
	pc := sw.PortCounters()
	if pc[0].PushedOut != 1 {
		t.Errorf("port 0 pushed out %d, want 1", pc[0].PushedOut)
	}
	if pc[0].Transmitted != 7 || pc[0].TransmittedValue != 14 {
		t.Errorf("port 0 counters %+v", pc[0])
	}
	if pc[1].TransmittedValue != 4 {
		t.Errorf("port 1 value %d, want 4", pc[1].TransmittedValue)
	}
	if got := pc[0].DeliveryRate(); got != 7.0/8 {
		t.Errorf("port 0 delivery %v, want 7/8", got)
	}
	sw.Reset()
	for _, c := range sw.PortCounters() {
		if c != (PortCounters{}) {
			t.Errorf("Reset left counters %+v", c)
		}
	}
}

// TestQuickConservation runs random traffic through both models with
// invariant checking enabled and verifies packet conservation end to end.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64, valueModel bool) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Ports:           1 + rng.Intn(4),
			MaxLabel:        4,
			Speedup:         1 + rng.Intn(2),
			CheckInvariants: true,
		}
		cfg.Buffer = cfg.Ports + rng.Intn(8)
		if valueModel {
			cfg.Model = ModelValue
		} else {
			cfg.Model = ModelProcessing
			works := make([]int, cfg.Ports)
			prev := 1
			for i := range works {
				prev += rng.Intn(2)
				if prev > cfg.MaxLabel {
					prev = cfg.MaxLabel
				}
				works[i] = prev
			}
			cfg.PortWork = works
		}
		// Alternate between greedy and an eviction-happy policy.
		pol := greedy
		sw := MustNew(cfg, pol)
		for slot := 0; slot < 50; slot++ {
			burst := make([]pkt.Packet, rng.Intn(5))
			for i := range burst {
				port := rng.Intn(cfg.Ports)
				if valueModel {
					burst[i] = pkt.NewValue(port, 1+rng.Intn(cfg.MaxLabel))
				} else {
					burst[i] = pkt.NewWork(port, cfg.PortWork[port])
				}
			}
			if err := sw.Step(burst); err != nil {
				t.Logf("step error: %v", err)
				return false
			}
		}
		sw.Drain()
		st := sw.Stats()
		return st.Arrived == st.Accepted+st.Dropped &&
			st.Accepted == st.Transmitted+st.PushedOut &&
			sw.Occupancy() == 0
	}
	if err := quick.Check(f, qcfg(60)); err != nil {
		t.Error(err)
	}
}

// qcfg returns a deterministic quick.Config so property tests are
// reproducible run to run.
func qcfg(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(7))}
}
