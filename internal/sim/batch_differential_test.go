// Differential tests for the batch kernels: every roster policy
// replays the same fixed-seed traces through core.Switch twice — once
// driven by the policy itself (its AdmitBatch kernel when it has one)
// and once through admitOnly, which hides the kernel so ArriveBatch
// falls back to Batch.PerPacket and one Admit per packet — and the two
// runs must agree bit for bit on Stats, per-port counters, obs
// decision counters and traced events. The fault-injected variants pin
// the equivalence off the nominal point, where buffer squeezes force
// Free() == 0 mid-burst and burst amplification stretches the batches.
//
// Together with differential_test.go (engine vs the naive refSwitch
// over plain-View scans) this closes the triangle: per-packet Admit ==
// reference and kernel == per-packet Admit, so kernel == reference.
package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"smbm/internal/core"
	"smbm/internal/faults"
	"smbm/internal/obs"
	"smbm/internal/policy"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// admitOnly hides a policy's AdmitBatch kernel, so the switch decides
// every burst through Batch.PerPacket.
type admitOnly struct{ core.Policy }

// batchDiffRun replays tr through two identically configured switches,
// one deciding through pol's batch kernel and one through its
// per-packet Admit (CheckInvariants on, recorders with tracing
// attached), and requires bit-identical Stats, per-port counters and
// obs snapshots.
func batchDiffRun(t *testing.T, cfg core.Config, pol core.Policy, tr traffic.Trace, spec faults.Spec, seed int64) {
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

	var sysB, sysP sim.System = batched, perPkt
	if !spec.Empty() {
		if sysB, err = faults.New(sysB, spec, cfg.Ports, seed); err != nil {
			t.Fatal(err)
		}
		if sysP, err = faults.New(sysP, spec, cfg.Ports, seed); err != nil {
			t.Fatal(err)
		}
	}
	const flushEvery = 64
	sb, err := sim.RunTrace(sysB, tr, flushEvery)
	if err != nil {
		t.Fatalf("batch kernel: %v", err)
	}
	sp, err := sim.RunTrace(sysP, tr, flushEvery)
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
// roster through batch kernels vs per-packet Admit, nominal and under a
// dense fault mix.
func TestBatchDifferentialProcessing(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg, tr := procSetup(t, seed, 300)
		for _, p := range batchRosterProcessing() {
			p := p
			t.Run(fmt.Sprintf("%s/seed%d", p.Name(), seed), func(t *testing.T) {
				batchDiffRun(t, cfg, p, tr, faults.Spec{}, seed)
			})
		}
	}
	t.Run("faulted", func(t *testing.T) {
		const slots = 400
		spec := denseFaults(slots)
		for _, seed := range []int64{11, 12} {
			cfg, tr := procSetup(t, seed, slots)
			for _, p := range batchRosterProcessing() {
				p := p
				t.Run(fmt.Sprintf("%s/seed%d", p.Name(), seed), func(t *testing.T) {
					batchDiffRun(t, cfg, p, tr, spec, seed)
				})
			}
		}
	})
}

// TestBatchDifferentialValue drives the value-model rosters (uniform
// values, value-by-port, and the experimental set) through batch
// kernels vs per-packet Admit, nominal and under a dense fault mix.
func TestBatchDifferentialValue(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		pols := append(policy.ForValueUniform(), policy.ValueExperimental()...)
		for _, seed := range []int64{1, 2, 3} {
			cfg, tr := valSetup(t, seed, 300)
			for _, p := range pols {
				p := p
				t.Run(fmt.Sprintf("%s/seed%d", p.Name(), seed), func(t *testing.T) {
					batchDiffRun(t, cfg, p, tr, faults.Spec{}, seed)
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
					batchDiffRun(t, cfg, p, tr, faults.Spec{}, seed)
				})
			}
		}
	})
	t.Run("faulted", func(t *testing.T) {
		const slots = 400
		spec := denseFaults(slots)
		pols := append(policy.ForValueUniform(), policy.ValueExperimental()...)
		for _, seed := range []int64{11, 12} {
			cfg, tr := valSetup(t, seed, slots)
			for _, p := range pols {
				p := p
				t.Run(fmt.Sprintf("%s/seed%d", p.Name(), seed), func(t *testing.T) {
					batchDiffRun(t, cfg, p, tr, spec, seed)
				})
			}
		}
	})
}

// TestBatchDifferentialCombined drives the combined work×value roster
// through batch kernels vs per-packet Admit, nominal and under a dense
// fault mix.
func TestBatchDifferentialCombined(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg, tr := combSetup(t, seed, 300)
		for _, p := range policy.ForCombined() {
			p := p
			t.Run(fmt.Sprintf("%s/seed%d", p.Name(), seed), func(t *testing.T) {
				batchDiffRun(t, cfg, p, tr, faults.Spec{}, seed)
			})
		}
	}
	t.Run("faulted", func(t *testing.T) {
		const slots = 400
		spec := denseFaults(slots)
		for _, seed := range []int64{11, 12} {
			cfg, tr := combSetup(t, seed, slots)
			for _, p := range policy.ForCombined() {
				p := p
				t.Run(fmt.Sprintf("%s/seed%d", p.Name(), seed), func(t *testing.T) {
					batchDiffRun(t, cfg, p, tr, spec, seed)
				})
			}
		}
	})
}
