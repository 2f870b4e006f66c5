// Differential tests for the observability layer: every replay runs
// with a Recorder attached AND the policy wrapped in a counting shim
// that re-derives the same counters independently, from the plain View
// at decision time. The two bookkeepings — the engine's instrumentation
// sites and the shim's first-principles recomputation — must agree
// exactly, and both must reconcile with the engine's own Stats and
// per-port counters.
//
// This file is package sim_test (external) so it can reuse the
// differential harness helpers (procSetup, valSetup).
package sim_test

import (
	"fmt"
	"testing"

	"smbm/internal/core"
	"smbm/internal/obs"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// countingPolicy wraps a policy and recomputes, from the pre-decision
// View, exactly the counters the engine's instrumentation records: a
// second, independent implementation of the bookkeeping. Wrapping also
// hides the policy's batch kernel, so the engine decides through the
// policy's plain-View reference scan, one Admit per packet.
type countingPolicy struct {
	core.Policy
	admits, drops, pushouts []uint64
	poWork, poValue         []uint64
}

func newCountingPolicy(p core.Policy, ports int) *countingPolicy {
	return &countingPolicy{
		Policy:   p,
		admits:   make([]uint64, ports),
		drops:    make([]uint64, ports),
		pushouts: make([]uint64, ports),
		poWork:   make([]uint64, ports),
		poValue:  make([]uint64, ports),
	}
}

// Admit delegates the decision and then mirrors the engine's recording
// semantics against the still-unmutated View: in the processing model
// the evicted tail's residual work is the whole queue work when the
// victim queue holds one packet (head-of-line progress included), one
// port-work quantum otherwise, and its value is 1; in the value model
// the evicted work is 1 and the evicted value is the victim queue's
// minimum.
func (c *countingPolicy) Admit(v core.View, p pkt.Packet) core.Decision {
	d := c.Policy.Admit(v, p)
	if !d.Accept {
		c.drops[p.Port]++
		return d
	}
	c.admits[p.Port]++
	if d.Push {
		c.pushouts[d.Victim]++
		if v.Model() == core.ModelValue {
			c.poWork[d.Victim]++
			c.poValue[d.Victim] += uint64(v.QueueMinValue(d.Victim))
		} else {
			if v.QueueLen(d.Victim) == 1 {
				c.poWork[d.Victim] += uint64(v.QueueWork(d.Victim))
			} else {
				c.poWork[d.Victim] += uint64(v.PortWork(d.Victim))
			}
			c.poValue[d.Victim]++
		}
	}
	return d
}

// obsRun replays tr once through an instrumented switch running the
// counting shim, then cross-checks three independent bookkeepings: the
// Recorder's snapshot, the shim's recomputation, and the engine's
// Stats/PortCounters. After the final drain the snapshot must also
// balance (admits = push-outs + transmits on every port).
func obsRun(t *testing.T, cfg core.Config, pol core.Policy, tr traffic.Trace) {
	t.Helper()
	cp := newCountingPolicy(pol, cfg.Ports)
	chkCfg := cfg
	chkCfg.CheckInvariants = true
	sw, err := core.New(chkCfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(cfg.Ports, 0)
	sw.SetRecorder(rec)

	stats, err := sim.RunTrace(sw, tr, 64)
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	pcs := sw.PortCounters()
	for i := 0; i < cfg.Ports; i++ {
		c := snap.PerPort[i]
		ref := obs.KindCounts{
			Admits:         cp.admits[i],
			TailDrops:      cp.drops[i],
			PushOuts:       cp.pushouts[i],
			PushedOutWork:  cp.poWork[i],
			PushedOutValue: cp.poValue[i],
			HOLTransmits:   c.HOLTransmits, // shim cannot see transmissions
		}
		if c != ref {
			t.Errorf("%s: port %d counters diverged from recomputation\n  rec: %+v\n  ref: %+v", pol.Name(), i, c, ref)
		}
		if c.Admits != uint64(pcs[i].Accepted) || c.TailDrops != uint64(pcs[i].Dropped) ||
			c.PushOuts != uint64(pcs[i].PushedOut) || c.HOLTransmits != uint64(pcs[i].Transmitted) {
			t.Errorf("%s: port %d counters diverged from engine PortCounters\n  rec: %+v\n  eng: %+v", pol.Name(), i, c, pcs[i])
		}
	}
	if snap.Totals.Admits != uint64(stats.Accepted) ||
		snap.Totals.TailDrops != uint64(stats.Dropped) ||
		snap.Totals.PushOuts != uint64(stats.PushedOut) ||
		snap.Totals.HOLTransmits != uint64(stats.Transmitted) {
		t.Errorf("%s: totals diverged from Stats\n  rec: %+v\n  stats: %+v", pol.Name(), snap.Totals, stats)
	}
	if p := snap.Balanced(); p != -1 {
		t.Errorf("%s: port %d unbalanced after final drain: %+v", pol.Name(), p, snap.PerPort[p])
	}
}

// obsRosters returns every model's full roster paired with its
// differential cell builder.
func obsRosters() []struct {
	name  string
	pols  []core.Policy
	setup func(*testing.T, int64, int) (core.Config, traffic.Trace)
} {
	return []struct {
		name  string
		pols  []core.Policy
		setup func(*testing.T, int64, int) (core.Config, traffic.Trace)
	}{
		{"processing", append(policy.ForProcessing(), policy.Experimental()...), procSetup},
		{"value", append(policy.ForValueUniform(), policy.ValueExperimental()...), valSetup},
	}
}

// TestObsDifferentialNominal cross-checks the recorder against the
// counting shim and the engine's own counters for every roster policy
// of every model on the differential cells.
func TestObsDifferentialNominal(t *testing.T) {
	for _, r := range obsRosters() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				cfg, tr := r.setup(t, seed, 300)
				for _, p := range r.pols {
					p := p
					t.Run(fmt.Sprintf("%s/seed%d", p.Name(), seed), func(t *testing.T) {
						obsRun(t, cfg, p, tr)
					})
				}
			}
		})
	}
}

// TestObsRecorderDetachRestoresZeroState pins the sim harness contract
// the overhead budget rests on: after a replay with observability
// enabled, running the same Instance with Obs nil attaches no recorder,
// and Result.Obs stays nil.
func TestObsRecorderDetachRestoresZeroState(t *testing.T) {
	cfg, tr := procSetup(t, 1, 120)
	inst := sim.Instance{
		Cfg:        cfg,
		Policies:   []core.Policy{policy.LQD{}},
		Provider:   tr,
		FlushEvery: 64,
		Obs:        &obs.Options{},
	}
	withObs, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if withObs[0].Obs == nil || withObs[0].Obs.Totals.Admits == 0 {
		t.Fatalf("instrumented run produced no snapshot: %+v", withObs[0].Obs)
	}
	inst.Obs = nil
	without, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range without {
		if r.Obs != nil {
			t.Errorf("%s: Obs snapshot present on an uninstrumented run", r.Policy)
		}
	}
	// The replays themselves must be identical either way.
	if withObs[0].Throughput != without[0].Throughput {
		t.Errorf("observability changed throughput: %d vs %d", withObs[0].Throughput, without[0].Throughput)
	}
}
