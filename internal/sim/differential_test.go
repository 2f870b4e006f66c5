// Differential tests for the optimized engine: a deliberately naive
// reference switch (refSwitch, below) replays the same fixed-seed traces
// through the same policies and must produce bit-identical Stats and
// per-port counters.
//
// Two independent slow paths are exercised at once:
//
//   - refSwitch recomputes every View query from first principles (raw
//     slices, per-call scans) instead of the incremental mirrors the
//     production core.Switch maintains;
//   - refSwitch decides every arrival with the policy's Admit, its
//     plain-View reference scan, while the production switch runs the
//     policy's batch kernel over the FastView lanes.
//
// The production switch additionally runs with CheckInvariants enabled,
// so its incremental state is also cross-checked against recomputation
// every slot.
package sim_test

import (
	"fmt"
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// refSwitch is an old-style reference implementation of the switch
// engine: no incremental mirrors, no caches, every query a fresh scan.
// It intentionally mirrors the seed engine's semantics statement by
// statement so any divergence in the optimized engine is a real bug,
// not a modeling difference.
type refSwitch struct {
	cfg    core.Config
	policy core.Policy
	works  []int

	occ  int
	slot int64

	// FIFO discipline (processing model): queues[i] holds the arrival
	// slot of each buffered packet in FIFO order; holRes[i] is the
	// head-of-line residual.
	queues [][]int64
	holRes []int

	// Value model: vals[i] is the unordered multiset of buffered values.
	vals [][]int

	stats   core.Stats
	perPort []core.PortCounters
}

var (
	_ sim.System         = (*refSwitch)(nil)
	_ sim.BoundedDrainer = (*refSwitch)(nil)
	_ core.View          = (*refSwitch)(nil)
)

func newRefSwitch(t *testing.T, cfg core.Config, p core.Policy) *refSwitch {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	works := cfg.PortWork
	if cfg.Model == core.ModelValue || works == nil {
		works = core.UniformWorks(cfg.Ports, 1)
	}
	r := &refSwitch{
		cfg:     cfg,
		policy:  p,
		works:   works,
		perPort: make([]core.PortCounters, cfg.Ports),
	}
	if cfg.Model == core.ModelValue {
		r.vals = make([][]int, cfg.Ports)
	} else {
		r.queues = make([][]int64, cfg.Ports)
		r.holRes = make([]int, cfg.Ports)
	}
	return r
}

// --- plain View (slow-path queries only) ---------------------------------

func (r *refSwitch) Model() core.Model { return r.cfg.Model }
func (r *refSwitch) Ports() int        { return r.cfg.Ports }
func (r *refSwitch) MaxLabel() int     { return r.cfg.MaxLabel }
func (r *refSwitch) Occupancy() int    { return r.occ }

func (r *refSwitch) Buffer() int { return r.cfg.Buffer }
func (r *refSwitch) Free() int   { return r.cfg.Buffer - r.occ }

func (r *refSwitch) QueueLen(i int) int {
	if r.cfg.Model == core.ModelValue {
		return len(r.vals[i])
	}
	return len(r.queues[i])
}

func (r *refSwitch) PortWork(i int) int { return r.works[i] }

func (r *refSwitch) QueueWork(i int) int {
	if r.cfg.Model == core.ModelValue {
		return len(r.vals[i])
	}
	if len(r.queues[i]) == 0 {
		return 0
	}
	return (len(r.queues[i])-1)*r.works[i] + r.holRes[i]
}

func (r *refSwitch) QueueMinValue(i int) int {
	if r.cfg.Model == core.ModelProcessing {
		if len(r.queues[i]) == 0 {
			return 0
		}
		return 1
	}
	vs := r.vals[i]
	if len(vs) == 0 {
		return 0
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func (r *refSwitch) QueueMaxValue(i int) int {
	if r.cfg.Model == core.ModelProcessing {
		if len(r.queues[i]) == 0 {
			return 0
		}
		return 1
	}
	vs := r.vals[i]
	if len(vs) == 0 {
		return 0
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func (r *refSwitch) QueueValueSum(i int) int64 {
	if r.cfg.Model == core.ModelProcessing {
		return int64(len(r.queues[i]))
	}
	var s int64
	for _, v := range r.vals[i] {
		s += int64(v)
	}
	return s
}

// --- simulation ----------------------------------------------------------

func (r *refSwitch) Name() string { return "ref(" + r.policy.Name() + ")" }

func (r *refSwitch) Stats() core.Stats { return r.stats }

func (r *refSwitch) arrive(p pkt.Packet) error {
	if err := p.Validate(r.cfg.Ports, r.cfg.MaxLabel); err != nil {
		return err
	}
	if r.cfg.Model != core.ModelValue && p.Work != r.works[p.Port] {
		return fmt.Errorf("ref: packet work %d does not match port %d configuration %d", p.Work, p.Port, r.works[p.Port])
	}
	r.stats.Arrived++
	r.perPort[p.Port].Arrived++
	d := r.policy.Admit(r, p)
	if !d.Accept {
		r.stats.Dropped++
		r.perPort[p.Port].Dropped++
		return nil
	}
	if d.Push {
		if err := r.evict(d.Victim); err != nil {
			return fmt.Errorf("ref: policy %s: %w", r.policy.Name(), err)
		}
	}
	if r.occ >= r.cfg.Buffer {
		return fmt.Errorf("ref: policy %s accepted into a full buffer (occ=%d, B=%d)", r.policy.Name(), r.occ, r.cfg.Buffer)
	}
	// insert
	i := p.Port
	if r.cfg.Model == core.ModelValue {
		r.vals[i] = append(r.vals[i], p.Value)
	} else {
		r.queues[i] = append(r.queues[i], r.slot)
		if len(r.queues[i]) == 1 {
			r.holRes[i] = r.works[i]
		}
	}
	r.occ++
	r.stats.Accepted++
	r.perPort[i].Accepted++
	if r.occ > r.stats.MaxOccupancy {
		r.stats.MaxOccupancy = r.occ
	}
	return nil
}

func (r *refSwitch) evict(victim int) error {
	if victim < 0 || victim >= r.cfg.Ports {
		return fmt.Errorf("push-out victim %d out of range", victim)
	}
	if r.QueueLen(victim) == 0 {
		return fmt.Errorf("push-out from empty queue %d", victim)
	}
	if r.cfg.Model != core.ModelValue {
		q := r.queues[victim]
		r.queues[victim] = q[:len(q)-1]
		if len(r.queues[victim]) == 0 {
			r.holRes[victim] = 0
		}
	} else {
		// Remove one instance of the minimum value: the multiset
		// equivalent of the production engine's PopMin.
		vs := r.vals[victim]
		mi := 0
		for j, v := range vs {
			if v < vs[mi] {
				mi = j
			}
		}
		r.vals[victim] = append(vs[:mi], vs[mi+1:]...)
	}
	r.occ--
	r.stats.PushedOut++
	r.perPort[victim].PushedOut++
	return nil
}

func (r *refSwitch) transmit() {
	if r.cfg.Model != core.ModelValue {
		for i := 0; i < r.cfg.Ports; i++ {
			budget := r.cfg.Speedup
			for budget > 0 && len(r.queues[i]) > 0 {
				use := budget
				if r.holRes[i] < use {
					use = r.holRes[i]
				}
				r.holRes[i] -= use
				budget -= use
				r.stats.CyclesUsed += int64(use)
				if r.holRes[i] > 0 {
					break
				}
				arrivedAt := r.queues[i][0]
				r.queues[i] = r.queues[i][1:]
				r.occ--
				lat := r.slot - arrivedAt
				r.stats.Transmitted++
				r.stats.TransmittedValue++
				r.stats.TransmittedWork += int64(r.works[i])
				r.stats.LatencySlots += lat
				pc := &r.perPort[i]
				pc.Transmitted++
				pc.TransmittedValue++
				pc.LatencySlots += lat
				if lat > pc.MaxLatency {
					pc.MaxLatency = lat
				}
				if len(r.queues[i]) > 0 {
					r.holRes[i] = r.works[i]
				}
			}
		}
	} else {
		for i := 0; i < r.cfg.Ports; i++ {
			pops := r.cfg.Speedup
			if l := len(r.vals[i]); pops > l {
				pops = l
			}
			for c := 0; c < pops; c++ {
				// Remove one instance of the maximum value (PopMax).
				vs := r.vals[i]
				mi := 0
				for j, v := range vs {
					if v > vs[mi] {
						mi = j
					}
				}
				v := vs[mi]
				r.vals[i] = append(vs[:mi], vs[mi+1:]...)
				r.occ--
				r.stats.Transmitted++
				r.stats.TransmittedValue += int64(v)
				r.stats.TransmittedWork++
				r.stats.CyclesUsed++
				r.perPort[i].Transmitted++
				r.perPort[i].TransmittedValue += int64(v)
			}
		}
	}
	r.slot++
	r.stats.Slots++
}

func (r *refSwitch) Step(arrivals []pkt.Packet) error {
	for _, p := range arrivals {
		if err := r.arrive(p); err != nil {
			return err
		}
	}
	r.transmit()
	return nil
}

func (r *refSwitch) Drain() int {
	var slots int
	for r.occ > 0 {
		r.transmit()
		slots++
	}
	return slots
}

func (r *refSwitch) DrainMax(max int) (int, bool) {
	var slots int
	for r.occ > 0 {
		if slots >= max {
			return slots, false
		}
		r.transmit()
		slots++
	}
	return slots, true
}

func (r *refSwitch) Reset() {
	r.occ = 0
	r.slot = 0
	r.stats = core.Stats{}
	for i := range r.perPort {
		r.perPort[i] = core.PortCounters{}
	}
	for i := range r.queues {
		r.queues[i] = nil
		r.holRes[i] = 0
	}
	for i := range r.vals {
		r.vals[i] = nil
	}
}

// --- the differential harness --------------------------------------------

// diffRun replays tr through the optimized engine (with CheckInvariants
// on) and the naive reference engine, and requires bit-identical Stats
// and per-port counters.
func diffRun(t *testing.T, cfg core.Config, pol core.Policy, tr traffic.Trace) {
	t.Helper()
	fastCfg := cfg
	fastCfg.CheckInvariants = true
	fast, err := core.New(fastCfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSwitch(t, cfg, pol)

	const flushEvery = 64
	sf, err := sim.RunTrace(fast, tr, flushEvery)
	if err != nil {
		t.Fatalf("optimized engine: %v", err)
	}
	sr, err := sim.RunTrace(ref, tr, flushEvery)
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	if sf != sr {
		t.Errorf("%s: stats diverged\n fast: %+v\n  ref: %+v", pol.Name(), sf, sr)
	}
	pf := fast.PortCounters()
	for i := range pf {
		if pf[i] != ref.perPort[i] {
			t.Errorf("%s: port %d counters diverged\n fast: %+v\n  ref: %+v", pol.Name(), i, pf[i], ref.perPort[i])
		}
	}
}

// diffTrace renders a deterministic overloaded MMPP trace.
func diffTrace(t *testing.T, mc traffic.MMPPConfig, slots int) traffic.Trace {
	t.Helper()
	gen, err := traffic.NewMMPP(mc)
	if err != nil {
		t.Fatal(err)
	}
	return traffic.Record(gen, slots)
}

// procSetup is the canonical heterogeneous-work differential cell: small
// shared buffer under ~2x overload so admission, push-out and transmission
// churn constantly.
func procSetup(t *testing.T, seed int64, slots int) (core.Config, traffic.Trace) {
	t.Helper()
	cfg := core.Config{
		Model:    core.ModelProcessing,
		Ports:    4,
		Buffer:   12,
		MaxLabel: 4,
		Speedup:  2,
		PortWork: core.ContiguousWorks(4),
	}
	tr := diffTrace(t, traffic.MMPPConfig{
		Sources:      40,
		LambdaOn:     0.35,
		POnOff:       0.2,
		POffOn:       0.3,
		Label:        traffic.LabelWorkByPort,
		Ports:        cfg.Ports,
		MaxLabel:     cfg.MaxLabel,
		PortWork:     cfg.PortWork,
		PortAffinity: true,
		Seed:         seed,
	}, slots)
	return cfg, tr
}

// valSetup is the value-model differential cell (uniform values).
func valSetup(t *testing.T, seed int64, slots int) (core.Config, traffic.Trace) {
	t.Helper()
	cfg := core.Config{
		Model:    core.ModelValue,
		Ports:    4,
		Buffer:   12,
		MaxLabel: 6,
		Speedup:  1,
	}
	tr := diffTrace(t, traffic.MMPPConfig{
		Sources:      40,
		LambdaOn:     0.35,
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

// TestDifferentialProcessing replays fixed-seed heterogeneous-work
// traces through the full processing-model roster on both engines at
// the setup's speedup C = 2 (subtests policy/seedN) and again at C = 1
// and C = MaxLabel+1 (subtests under C1/ and C<MaxLabel+1>/). The
// speedup exercises the two tiers of the engine's transmit phase: at
// C = 1 almost every slot only shortens a head-of-line residual; at
// C = 2 unit-work ports finish two packets per slot; at C = MaxLabel+1
// every busy port finishes its head-of-line packet each slot and
// carries the leftover cycles into the next.
func TestDifferentialProcessing(t *testing.T) {
	pols := append(policy.ForProcessing(), policy.Experimental()...)
	for _, seed := range []int64{1, 2, 3} {
		cfg, tr := procSetup(t, seed, 300)
		for _, c := range []int{cfg.Speedup, 1, cfg.MaxLabel + 1} {
			cfg := cfg
			prefix := ""
			if c != cfg.Speedup {
				cfg.Speedup, prefix = c, fmt.Sprintf("C%d/", c)
			}
			for _, p := range pols {
				t.Run(fmt.Sprintf("%s%s/seed%d", prefix, p.Name(), seed), func(t *testing.T) {
					diffRun(t, cfg, p, tr)
				})
			}
		}
	}
}

// TestDifferentialValue replays fixed-seed value-model traces through the
// value roster (including the shared length-based policies) on both
// engines, in both the uniform-value and value-by-port labelings.
func TestDifferentialValue(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		pols := append(policy.ForValueUniform(), policy.ValueExperimental()...)
		for _, seed := range []int64{1, 2, 3} {
			cfg, tr := valSetup(t, seed, 300)
			for _, p := range pols {
				p := p
				t.Run(fmt.Sprintf("%s/seed%d", p.Name(), seed), func(t *testing.T) {
					diffRun(t, cfg, p, tr)
				})
			}
		}
	})
	t.Run("by-port", func(t *testing.T) {
		// Value determined by port (panels 7-9) adds NHSTV; needs
		// Ports == MaxLabel.
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
					diffRun(t, cfg, p, tr)
				})
			}
		}
	})
}
