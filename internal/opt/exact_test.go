package opt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/traffic"
)

func tinyProcCfg() core.Config {
	return core.Config{
		Model:    core.ModelProcessing,
		Ports:    3,
		Buffer:   4,
		MaxLabel: 3,
		Speedup:  1,
		PortWork: []int{1, 2, 3},
	}
}

func tinyValCfg() core.Config {
	return core.Config{
		Model:    core.ModelValue,
		Ports:    3,
		Buffer:   4,
		MaxLabel: 4,
		Speedup:  1,
	}
}

func TestExactProcessingHandComputed(t *testing.T) {
	cfg := tinyProcCfg()

	t.Run("everything fits", func(t *testing.T) {
		tr := traffic.Slots([]pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(1, 2)})
		got, err := ExactProcessing(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got != 2 {
			t.Errorf("got %d, want 2", got)
		}
	})

	t.Run("overload picks the cheap packets", func(t *testing.T) {
		// 6 unit-work packets into B=4, one slot, then drain: OPT
		// transmits 1 during the slot and 3 more from the buffer.
		tr := traffic.Slots(pkt.Burst(pkt.NewWork(0, 1), 6))
		got, err := ExactProcessing(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got != 4 {
			t.Errorf("got %d, want 4 (buffer bound)", got)
		}
	})

	t.Run("declining expensive packets pays off", func(t *testing.T) {
		// Ports {1,3}, B=2. Slot 0 offers two work-3 packets; slots
		// 1..5 offer one work-1 packet each. Greedy hoards both 3s,
		// which serialize in one FIFO queue and keep the buffer full
		// through slots 1-2: it ends with 2 threes + 3 ones = 5.
		// The optimum declines one 3 and collects all five 1s: 6.
		small := core.Config{
			Model: core.ModelProcessing, Ports: 2, Buffer: 2,
			MaxLabel: 3, Speedup: 1, PortWork: []int{1, 3},
		}
		tr := traffic.Slots(
			pkt.Burst(pkt.NewWork(1, 3), 2),
			[]pkt.Packet{pkt.NewWork(0, 1)},
			[]pkt.Packet{pkt.NewWork(0, 1)},
			[]pkt.Packet{pkt.NewWork(0, 1)},
			[]pkt.Packet{pkt.NewWork(0, 1)},
			[]pkt.Packet{pkt.NewWork(0, 1)},
		)
		got, err := ExactProcessing(small, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got != 6 {
			t.Errorf("exact = %d, want 6", got)
		}
		if greedy := runPolicy(t, small, policy.Greedy{}, tr); greedy != 5 {
			t.Errorf("greedy = %d, want 5", greedy)
		}
	})
}

func TestExactValueHandComputed(t *testing.T) {
	cfg := tinyValCfg()
	// One slot: values 4,3,2,1,1 offered into B=4. OPT keeps {4,3,2,1},
	// transmits 4 in slot 0 (one queue... all to port 0: PQ pops 4),
	// drains 3+2+1.
	tr := traffic.Slots([]pkt.Packet{
		pkt.NewValue(0, 4), pkt.NewValue(0, 3), pkt.NewValue(0, 2),
		pkt.NewValue(0, 1), pkt.NewValue(0, 1),
	})
	got, err := ExactValue(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Errorf("got %d, want 10", got)
	}
	// Spreading over ports transmits in parallel but value is capped by
	// the buffer anyway.
	tr = traffic.Slots([]pkt.Packet{
		pkt.NewValue(0, 4), pkt.NewValue(1, 4), pkt.NewValue(2, 4),
		pkt.NewValue(0, 4), pkt.NewValue(1, 4),
	})
	got, err = ExactValue(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Errorf("got %d, want 16 (4 of the five 4s fit)", got)
	}
}

func TestExactCaps(t *testing.T) {
	big := tinyProcCfg()
	big.Ports = 5
	big.PortWork = []int{1, 1, 1, 1, 1}
	big.Buffer = 8
	if _, err := ExactProcessing(big, nil); err == nil {
		t.Error("ports over cap accepted")
	}
	cfg := tinyProcCfg()
	long := make(traffic.Trace, maxExactSlots+1)
	if _, err := ExactProcessing(cfg, long); err == nil {
		t.Error("slots over cap accepted")
	}
	dense := traffic.Slots(pkt.Burst(pkt.NewWork(0, 1), maxExactArrivals+1))
	if _, err := ExactProcessing(cfg, dense); err == nil {
		t.Error("arrivals over cap accepted")
	}
	if _, err := ExactProcessing(tinyValCfg(), nil); err == nil {
		t.Error("model mismatch accepted")
	}
	if _, err := ExactValue(tinyProcCfg(), nil); err == nil {
		t.Error("model mismatch accepted")
	}
	bad := traffic.Slots([]pkt.Packet{pkt.NewWork(9, 1)})
	if _, err := ExactProcessing(cfg, bad); err == nil {
		t.Error("invalid packet accepted")
	}
}

// randomTinyTrace builds a small random trace legal for cfg.
func randomTinyTrace(rng *rand.Rand, cfg core.Config, slots, maxBurst int) traffic.Trace {
	tr := make(traffic.Trace, slots)
	for s := range tr {
		burst := make([]pkt.Packet, rng.Intn(maxBurst+1))
		for i := range burst {
			port := rng.Intn(cfg.Ports)
			if cfg.Model == core.ModelValue {
				burst[i] = pkt.NewValue(port, 1+rng.Intn(cfg.MaxLabel))
			} else {
				burst[i] = pkt.NewWork(port, cfg.PortWork[port])
			}
		}
		tr[s] = burst
	}
	return tr
}

// runPolicy drives one policy over the trace with a final drain and
// returns its objective.
func runPolicy(t *testing.T, cfg core.Config, p core.Policy, tr traffic.Trace) int64 {
	t.Helper()
	sw := core.MustNew(cfg, p)
	for _, burst := range tr {
		if err := sw.Step(burst); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
	sw.Drain()
	return sw.Stats().Throughput(cfg.Model)
}

// TestQuickExactDominatesOnlinePolicies: the offline optimum is an upper
// bound for every online policy on every instance.
func TestQuickExactDominatesOnlinePolicies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := tinyProcCfg()
		tr := randomTinyTrace(rng, cfg, 4, 4)
		exact, err := ExactProcessing(cfg, tr)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, p := range policy.ForProcessing() {
			if got := runPolicy(t, cfg, p, tr); got > exact {
				t.Logf("%s transmitted %d > exact %d", p.Name(), got, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg(120)); err != nil {
		t.Error(err)
	}
}

// TestSPQProxyIsNotAStrictUpperBound pins down a subtle methodology
// fact: the paper's OPT proxy (single priority queue, smallest-first,
// n·C cores) is NOT a strict upper bound on the shared-memory offline
// optimum. Smallest-first transmission is suboptimal with multiple
// cores: on this instance, investing a cycle in a work-2 packet instead
// of completing a second work-1 packet lets the buffer flush three
// packets at once one slot later, freeing space for the final burst.
// The paper phrases the proxy's superiority as an empirical observation
// under congestion ("it may perform even better than optimal"), not a
// theorem; this test documents the gap so nobody "fixes" the harness
// into asserting dominance.
func TestSPQProxyIsNotAStrictUpperBound(t *testing.T) {
	cfg := tinyProcCfg()
	tr := traffic.Slots(
		[]pkt.Packet{pkt.NewWork(2, 3)},
		[]pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(1, 2), pkt.NewWork(1, 2), pkt.NewWork(0, 1)},
		[]pkt.Packet{pkt.NewWork(2, 3)},
		[]pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(0, 1), pkt.NewWork(1, 2)},
	)
	exact, err := ExactProcessing(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	spq, err := NewSPQ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, burst := range tr {
		if err := spq.Step(burst); err != nil {
			t.Fatal(err)
		}
	}
	spq.Drain()
	if got := spq.Stats().Transmitted; got != 7 || exact != 8 {
		t.Errorf("SPQ = %d (want 7), exact = %d (want 8)", got, exact)
	}
}

// TestQuickLWDTwoCompetitive is Theorem 7 as an executable invariant:
// on every instance, LWD transmits at least half of the true offline
// optimum.
func TestQuickLWDTwoCompetitive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := tinyProcCfg()
		tr := randomTinyTrace(rng, cfg, 5, 4)
		exact, err := ExactProcessing(cfg, tr)
		if err != nil {
			t.Log(err)
			return false
		}
		lwd := runPolicy(t, cfg, policy.LWD{}, tr)
		if 2*lwd < exact {
			t.Logf("LWD %d vs exact %d violates 2-competitiveness", lwd, exact)
			return false
		}
		return true
	}
	if err := quick.Check(f, qcfg(200)); err != nil {
		t.Error(err)
	}
}

// TestQuickValueExactDominates mirrors the sandwich in the value model.
func TestQuickValueExactDominates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := tinyValCfg()
		tr := randomTinyTrace(rng, cfg, 4, 4)
		exact, err := ExactValue(cfg, tr)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, p := range policy.ForValueByPort() {
			if got := runPolicy(t, cfg, p, tr); got > exact {
				t.Logf("%s value %d > exact %d", p.Name(), got, exact)
				return false
			}
		}
		spq, err := NewSPQ(cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, burst := range tr {
			if err := spq.Step(burst); err != nil {
				t.Log(err)
				return false
			}
		}
		spq.Drain()
		if spq.Stats().TransmittedValue < exact {
			t.Logf("SPQ %d < exact %d", spq.Stats().TransmittedValue, exact)
			return false
		}
		return true
	}
	if err := quick.Check(f, qcfg(120)); err != nil {
		t.Error(err)
	}
}

// qcfg returns a deterministic quick.Config so property tests are
// reproducible run to run.
func qcfg(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(7))}
}
