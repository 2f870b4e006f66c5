package policy

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"smbm/internal/core"
	"smbm/internal/pkt"
)

// This file holds the cross-model invariant suite: conservation and
// engine-consistency properties every roster policy must satisfy on
// the unified engine, in all three models, plus the value-model
// greedy-maximization properties that motivated MVD.

// invariantCell is one (model, roster, packet generator) cell of the
// cross-model sweep.
type invariantCell struct {
	name     string
	cfg      core.Config
	policies []core.Policy
	gen      func(rng *rand.Rand, cfg core.Config) pkt.Packet
}

// invariantCells enumerates every model's roster (experimental
// policies included) over a small saturating configuration.
func invariantCells() []invariantCell {
	procCfg := core.Config{
		Model: core.ModelProcessing, Ports: 4, Buffer: 8, MaxLabel: 4,
		Speedup: 1, PortWork: core.ContiguousWorks(4), CheckInvariants: true,
	}
	valCfg := core.Config{
		Model: core.ModelValue, Ports: 4, Buffer: 8, MaxLabel: 8,
		Speedup: 1, CheckInvariants: true,
	}
	combCfg := core.Config{
		Model: core.ModelCombined, Ports: 4, Buffer: 8, MaxLabel: 8,
		Speedup: 1, PortWork: []int{1, 2, 3, 4}, CheckInvariants: true,
	}
	return []invariantCell{
		{
			name:     "processing",
			cfg:      procCfg,
			policies: append(ForProcessing(), Experimental()...),
			gen: func(rng *rand.Rand, cfg core.Config) pkt.Packet {
				port := rng.Intn(cfg.Ports)
				return pkt.NewWork(port, cfg.PortWork[port])
			},
		},
		{
			name:     "value",
			cfg:      valCfg,
			policies: append(ForValueByPort(), ValueExperimental()...),
			gen: func(rng *rand.Rand, cfg core.Config) pkt.Packet {
				return pkt.NewValue(rng.Intn(cfg.Ports), 1+rng.Intn(cfg.MaxLabel))
			},
		},
		{
			name:     "combined",
			cfg:      combCfg,
			policies: ForCombined(),
			gen: func(rng *rand.Rand, cfg core.Config) pkt.Packet {
				port := rng.Intn(cfg.Ports)
				return pkt.NewWorkValue(port, cfg.PortWork[port], 1+rng.Intn(cfg.MaxLabel))
			},
		},
	}
}

// TestQuickRosterInvariants drives every roster policy of every model
// through random saturating traffic with engine invariant checks
// enabled, then drains and checks the conservation identities:
// arrivals split exactly into accepts and drops, and accepted packets
// split exactly into transmissions and push-outs.
func TestQuickRosterInvariants(t *testing.T) {
	for _, cell := range invariantCells() {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				for _, pol := range cell.policies {
					sw := core.MustNew(cell.cfg, pol)
					for slot := 0; slot < 25; slot++ {
						burst := make([]pkt.Packet, rng.Intn(8))
						for i := range burst {
							burst[i] = cell.gen(rng, cell.cfg)
						}
						if err := sw.Step(burst); err != nil {
							t.Logf("%s: %v", pol.Name(), err)
							return false
						}
					}
					sw.Drain()
					st := sw.Stats()
					if st.Arrived != st.Accepted+st.Dropped {
						t.Logf("%s: arrived %d != accepted %d + dropped %d", pol.Name(), st.Arrived, st.Accepted, st.Dropped)
						return false
					}
					if st.Accepted != st.Transmitted+st.PushedOut {
						t.Logf("%s: accepted %d != transmitted %d + pushed out %d", pol.Name(), st.Accepted, st.Transmitted, st.PushedOut)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, qcfg(20)); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestQuickMVDKeepsTopValues: absent transmissions, MVD's buffer always
// holds exactly the B most valuable packets offered so far (the greedy
// value-maximization property that defines the policy). LQD, by
// contrast, must violate this on value-skewed input.
func TestQuickMVDKeepsTopValues(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := valCfg(6)
		sw := core.MustNew(cfg, MVD{})
		var offered []int
		for i := 0; i < 30; i++ {
			p := pkt.NewValue(rng.Intn(cfg.Ports), 1+rng.Intn(cfg.MaxLabel))
			offered = append(offered, p.Value)
			if err := sw.Arrive(p); err != nil {
				t.Log(err)
				return false
			}
		}
		// The View exposes aggregates, which pin the multiset well
		// enough: buffered total value must equal the sum of the top-B
		// offered values, and the buffered minimum must be their
		// minimum.
		sort.Sort(sort.Reverse(sort.IntSlice(offered)))
		top := offered
		if len(top) > cfg.Buffer {
			top = top[:cfg.Buffer]
		}
		var wantSum int64
		wantMin := top[len(top)-1]
		for _, v := range top {
			wantSum += int64(v)
		}
		var gotSum int64
		gotMin := 0
		for q := 0; q < cfg.Ports; q++ {
			gotSum += sw.QueueValueSum(q)
			if mv := sw.QueueMinValue(q); mv > 0 && (gotMin == 0 || mv < gotMin) {
				gotMin = mv
			}
		}
		return gotSum == wantSum && gotMin == wantMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// TestMVDBeatsLQDOnBufferedValue is the deterministic counterpart: after
// a value-skewed burst, MVD's buffer is strictly richer than LQD's.
func TestMVDBeatsLQDOnBufferedValue(t *testing.T) {
	cfg := valCfg(4)
	burst := []pkt.Packet{
		pkt.NewValue(0, 1), pkt.NewValue(0, 1), pkt.NewValue(0, 1), pkt.NewValue(0, 1),
		pkt.NewValue(1, 8), pkt.NewValue(1, 8), pkt.NewValue(1, 8), pkt.NewValue(1, 8),
	}
	mvd := core.MustNew(cfg, MVD{})
	lqd := core.MustNew(cfg, VLQD{})
	if err := mvd.ArriveBatch(burst); err != nil {
		t.Fatal(err)
	}
	if err := lqd.ArriveBatch(burst); err != nil {
		t.Fatal(err)
	}
	sum := func(sw *core.Switch) int64 {
		var s int64
		for q := 0; q < cfg.Ports; q++ {
			s += sw.QueueValueSum(q)
		}
		return s
	}
	if m, l := sum(mvd), sum(lqd); m != 32 || m <= l {
		t.Errorf("MVD buffered value %d (want 32), LQD %d", m, l)
	}
}

// TestRVDEvictsWorkDenseQueue pins RVD's ordering in the combined
// model: the victim is the queue buffering the most work per unit of
// value, not the longest or the most work-laden in absolute terms.
func TestRVDEvictsWorkDenseQueue(t *testing.T) {
	cfg := core.Config{
		Model: core.ModelCombined, Ports: 4, Buffer: 6, MaxLabel: 8,
		Speedup: 1, PortWork: []int{1, 1, 4, 4},
	}
	sw := core.MustNew(cfg, RVD{})
	// Queue 2: 3 packets of work 4, value 1 each -> W=12, V=3, ratio 4.
	// Queue 3: 3 packets of work 4, value 8 each -> W=12, V=24, ratio 0.5.
	for i := 0; i < 3; i++ {
		if err := sw.Arrive(pkt.NewWorkValue(2, 4, 1)); err != nil {
			t.Fatal(err)
		}
		if err := sw.Arrive(pkt.NewWorkValue(3, 4, 8)); err != nil {
			t.Fatal(err)
		}
	}
	d := (RVD{}).Admit(sw, pkt.NewWorkValue(0, 1, 5))
	if !d.Push || d.Victim != 2 {
		t.Errorf("got %+v, want push-out from the work-dense queue 2", d)
	}
	// An arrival cheaper than the global minimum is dropped instead.
	if d := (RVD{}).Admit(sw, pkt.NewWorkValue(0, 1, 1)); !d.Push && d.Accept {
		t.Errorf("got %+v, want non-accept", d)
	}
}

// TestCombinedRosterAgainstGreedy sanity-checks the combined objective
// plumbing end to end: every combined push-out policy must deliver at
// least as much value as it would transmitting nothing, and the stats'
// value-per-cycle figure must be consistent with its parts.
func TestCombinedRosterAgainstGreedy(t *testing.T) {
	cfg := core.Config{
		Model: core.ModelCombined, Ports: 4, Buffer: 8, MaxLabel: 8,
		Speedup: 1, PortWork: []int{1, 2, 3, 4}, CheckInvariants: true,
	}
	rng := rand.New(rand.NewSource(11))
	slots := make([][]pkt.Packet, 40)
	for s := range slots {
		burst := make([]pkt.Packet, rng.Intn(6))
		for i := range burst {
			port := rng.Intn(cfg.Ports)
			burst[i] = pkt.NewWorkValue(port, cfg.PortWork[port], 1+rng.Intn(cfg.MaxLabel))
		}
		slots[s] = burst
	}
	for _, pol := range ForCombined() {
		sw := core.MustNew(cfg, pol)
		for _, burst := range slots {
			if err := sw.Step(burst); err != nil {
				t.Fatalf("%s: %v", pol.Name(), err)
			}
		}
		sw.Drain()
		st := sw.Stats()
		if st.TransmittedValue <= 0 {
			t.Errorf("%s: transmitted value %d, want > 0", pol.Name(), st.TransmittedValue)
		}
		if st.Throughput(cfg.Model) != st.TransmittedValue {
			t.Errorf("%s: combined throughput %d != transmitted value %d", pol.Name(), st.Throughput(cfg.Model), st.TransmittedValue)
		}
		vpc := st.ValuePerCycle()
		want := float64(st.TransmittedValue) / float64(st.CyclesUsed)
		if fmt.Sprintf("%.9f", vpc) != fmt.Sprintf("%.9f", want) {
			t.Errorf("%s: value/cycle %v != %v", pol.Name(), vpc, want)
		}
	}
}
