// Differential tests for the batch kernels: every roster policy
// replays the same fixed-seed traces through core.Switch twice — once
// driven by the policy itself (its AdmitBatch kernel when it has one)
// and once through admitOnly, which hides the kernel so ArriveBatch
// falls back to one Admit call per packet — and the two runs must
// agree bit for bit on Stats, per-port counters, obs decision counters
// and traced events.
//
// Admit is each policy's plain-View reference scan and shares no code
// with the kernel's rule struct, so this suite checks every kernel —
// victim ordering, threshold predicate and executor bookkeeping —
// against an independent statement of the policy, on the
// same production engine. differential_test.go then checks that engine
// against the naive refSwitch.
package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"smbm/internal/core"
	"smbm/internal/obs"
	"smbm/internal/policy"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// admitOnly hides a policy's AdmitBatch kernel, so the switch decides
// every burst with one Admit call per packet.
type admitOnly struct{ core.Policy }

// batchDiffRun replays tr through two identically configured switches,
// one deciding through pol's batch kernel and one through its
// per-packet Admit (CheckInvariants on, recorders with tracing
// attached), and requires bit-identical Stats, per-port counters and
// obs snapshots.
func batchDiffRun(t *testing.T, cfg core.Config, pol core.Policy, tr traffic.Trace) {
	t.Helper()
	cfg.CheckInvariants = true

	batched, err := core.New(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	perPkt, err := core.New(cfg, admitOnly{pol})
	if err != nil {
		t.Fatal(err)
	}
	const traceCap = 512
	recB := obs.NewRecorder(cfg.Ports, traceCap)
	recP := obs.NewRecorder(cfg.Ports, traceCap)
	batched.SetRecorder(recB)
	perPkt.SetRecorder(recP)

	const flushEvery = 64
	sb, err := sim.RunTrace(batched, tr, flushEvery)
	if err != nil {
		t.Fatalf("batch kernel: %v", err)
	}
	sp, err := sim.RunTrace(perPkt, tr, flushEvery)
	if err != nil {
		t.Fatalf("per-packet Admit: %v", err)
	}
	if sb != sp {
		t.Errorf("%s: stats diverged\n batched: %+v\n per-pkt: %+v", pol.Name(), sb, sp)
	}
	pb, pp := batched.PortCounters(), perPkt.PortCounters()
	for i := range pb {
		if pb[i] != pp[i] {
			t.Errorf("%s: port %d counters diverged\n batched: %+v\n per-pkt: %+v", pol.Name(), i, pb[i], pp[i])
		}
	}
	ob, op := recB.Snapshot(), recP.Snapshot()
	if !reflect.DeepEqual(ob, op) {
		t.Errorf("%s: obs snapshots diverged\n batched: %+v\n per-pkt: %+v", pol.Name(), ob, op)
	}
}

// batchRoster enumerates every roster policy for one model, mirroring
// the panels: the full processing roster plus experimental, or the
// value roster (uniform + by-port + experimental).
func batchRosterProcessing() []core.Policy {
	return append(policy.ForProcessing(), policy.Experimental()...)
}

// TestBatchDifferentialProcessing drives the full processing-model
// roster through batch kernels vs per-packet Admit.
func TestBatchDifferentialProcessing(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg, tr := procSetup(t, seed, 300)
		for _, p := range batchRosterProcessing() {
			p := p
			t.Run(fmt.Sprintf("%s/seed%d", p.Name(), seed), func(t *testing.T) {
				batchDiffRun(t, cfg, p, tr)
			})
		}
	}
}

// TestBatchDifferentialValue drives the value-model rosters (uniform
// values, value-by-port, and the experimental set) through batch
// kernels vs per-packet Admit.
func TestBatchDifferentialValue(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		pols := append(policy.ForValueUniform(), policy.ValueExperimental()...)
		for _, seed := range []int64{1, 2, 3} {
			cfg, tr := valSetup(t, seed, 300)
			for _, p := range pols {
				p := p
				t.Run(fmt.Sprintf("%s/seed%d", p.Name(), seed), func(t *testing.T) {
					batchDiffRun(t, cfg, p, tr)
				})
			}
		}
	})
	t.Run("by-port", func(t *testing.T) {
		cfg := core.Config{Model: core.ModelValue, Ports: 4, Buffer: 12, MaxLabel: 4, Speedup: 1}
		for _, seed := range []int64{1, 2} {
			tr := diffTrace(t, traffic.MMPPConfig{
				Sources:      40,
				LambdaOn:     0.35,
				POnOff:       0.2,
				POffOn:       0.3,
				Label:        traffic.LabelValueByPort,
				Ports:        cfg.Ports,
				MaxLabel:     cfg.MaxLabel,
				PortAffinity: true,
				Seed:         seed,
			}, 300)
			for _, p := range policy.ForValueByPort() {
				p := p
				t.Run(fmt.Sprintf("%s/seed%d", p.Name(), seed), func(t *testing.T) {
					batchDiffRun(t, cfg, p, tr)
				})
			}
		}
	})
	t.Run("ties", func(t *testing.T) {
		pols := append(policy.ForValueUniform(), policy.ValueExperimental()...)
		for _, seed := range []int64{1, 2, 3} {
			cfg, tr := tieSetup(t, seed, 300)
			for _, p := range pols {
				p := p
				t.Run(fmt.Sprintf("%s/seed%d", p.Name(), seed), func(t *testing.T) {
					batchDiffRun(t, cfg, p, tr)
				})
			}
		}
	})
}

// tieSetup is a tie-heavy value cell: k = 2 values over six ports,
// with a buffer of two packets per port, so queues often share a
// length, a minimum or an MRD ratio |Q|²/sum, and the push-out
// summaries' tie-breaks and runner-ups decide most congested arrivals.
func tieSetup(t *testing.T, seed int64, slots int) (core.Config, traffic.Trace) {
	t.Helper()
	cfg := core.Config{Model: core.ModelValue, Ports: 6, Buffer: 12, MaxLabel: 2, Speedup: 1}
	tr := diffTrace(t, traffic.MMPPConfig{
		Sources:      40,
		LambdaOn:     0.4,
		POnOff:       0.2,
		POffOn:       0.3,
		Label:        traffic.LabelValueUniform,
		Ports:        cfg.Ports,
		MaxLabel:     cfg.MaxLabel,
		PortAffinity: true,
		Seed:         seed,
	}, slots)
	return cfg, tr
}
