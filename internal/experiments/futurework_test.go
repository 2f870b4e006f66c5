package experiments

import (
	"testing"

	"smbm/internal/adversary"
	"smbm/internal/core"
	"smbm/internal/policy"
	"smbm/internal/sim"
)

// TestNHDTWOnTheorem3Construction records a negative result on the
// paper's future-work question: ranking the dynamic thresholds by
// buffered work instead of length does NOT blunt the Theorem 3 attack —
// the adversary's queues are simultaneously the longest and the
// heaviest, so both rankings admit the same packets and measure the
// same ratio. The assertion pins this equivalence so the finding stays
// an executable record rather than lore.
func TestNHDTWOnTheorem3Construction(t *testing.T) {
	c, err := adversary.Theorem3(adversary.Params{})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(p core.Policy) int64 {
		sw, err := core.New(c.Cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			for _, burst := range c.Round {
				if err := sw.Step(burst); err != nil {
					t.Fatalf("%s: %v", p.Name(), err)
				}
			}
		}
		for r := 0; r < c.Warmup; r++ {
			run()
		}
		before := sw.Stats().Transmitted
		for r := 0; r < c.Rounds; r++ {
			run()
		}
		return sw.Stats().Transmitted - before
	}
	nhdt := measure(policy.NHDT{})
	nhdtw := measure(policy.NHDTW{})
	opt := measure(c.Opt)
	ratioNHDT := float64(opt) / float64(nhdt)
	ratioNHDTW := float64(opt) / float64(nhdtw)
	t.Logf("Theorem 3 trace: NHDT ratio %.2f, NHDTW ratio %.2f", ratioNHDT, ratioNHDTW)
	if diff := ratioNHDTW/ratioNHDT - 1; diff > 0.2 || diff < -0.2 {
		t.Errorf("NHDTW ratio %.2f diverges from NHDT's %.2f — the negative-result record is stale, update the analysis",
			ratioNHDTW, ratioNHDT)
	}
}

// TestNHDTWOnStochasticTraffic: on the Fig. 5(1) workload the
// generalization must not lose to NHDT.
func TestNHDTWOnStochasticTraffic(t *testing.T) {
	o := smallOpts()
	e, err := panelSpec("fig5.1", o)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := e.Instance(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst.Policies = append([]core.Policy{policy.NHDT{}}, policy.Experimental()...)
	results, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]sim.Result{}
	for _, r := range results {
		byName[r.Policy] = r
	}
	nhdt, nhdtw := byName["NHDT"], byName["NHDTW"]
	t.Logf("stochastic: NHDT %.3f, NHDTW %.3f", nhdt.Ratio, nhdtw.Ratio)
	if nhdtw.Ratio > nhdt.Ratio*1.05 {
		t.Errorf("NHDTW (%.3f) worse than NHDT (%.3f) on stochastic traffic", nhdtw.Ratio, nhdt.Ratio)
	}
}
