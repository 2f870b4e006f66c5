package sim_test

import (
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/sim"
)

// TestSteadyStateZeroAllocs replays the congested micro trace through
// every roster policy of both models, and through each model's OPT
// proxy (one of the replays in every sweep cell), and requires the warm
// steady state (Step per slot, then Drain and Reset) to allocate
// nothing. The first replay grows the deques and multisets to their
// working size; every later replay must reuse them.
//
// Every roster policy must also have a batch kernel: without one the
// engine would silently fall back to the policy's O(n) plain-View
// reference scan, one Admit per packet.
func TestSteadyStateZeroAllocs(t *testing.T) {
	proc := core.Config{
		Model: core.ModelProcessing, Ports: 16, Buffer: 128, MaxLabel: 16,
		Speedup: 1, PortWork: core.ContiguousWorks(16),
	}
	value := core.Config{
		Model: core.ModelValue, Ports: 16, Buffer: 128, MaxLabel: 16, Speedup: 1,
	}
	rosters := []struct {
		cfg      core.Config
		policies []core.Policy
	}{
		{proc, append(policy.ForProcessing(), policy.Experimental()...)},
		{value, append(policy.ForValueByPort(), policy.ValueExperimental()...)},
	}

	checked := 0
	for _, r := range rosters {
		tr := microTraceB(r.cfg, 256, 8)
		for _, pol := range r.policies {
			checked++
			t.Run(r.cfg.Model.String()+"/"+pol.Name(), func(t *testing.T) {
				if _, ok := pol.(core.BatchPolicy); !ok {
					t.Fatalf("%T has no batch kernel (core.BatchPolicy)", pol)
				}
				requireZeroAllocReplay(t, core.MustNew(r.cfg, pol), tr)
			})
		}
		checked++
		t.Run(r.cfg.Model.String()+"/OPT(SPQ)", func(t *testing.T) {
			proxy, err := sim.NewOptProxy(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireZeroAllocReplay(t, proxy, tr)
		})
	}
	if checked != 20 {
		t.Fatalf("checked %d systems, want 18 roster policies and 2 OPT proxies", checked)
	}
}

// requireZeroAllocReplay replays tr through sys once to warm it, then
// requires every further replay (Step per slot, Drain, Reset) to
// allocate nothing.
func requireZeroAllocReplay(t *testing.T, sys sim.System, tr [][]pkt.Packet) {
	t.Helper()
	var err error
	replay := func() {
		for _, burst := range tr {
			if err = sys.Step(burst); err != nil {
				return
			}
		}
		sys.Drain()
		sys.Reset()
	}
	replay()
	allocs := testing.AllocsPerRun(5, replay)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if allocs != 0 {
		t.Errorf("steady state allocates %.0f times per replay", allocs)
	}
}
