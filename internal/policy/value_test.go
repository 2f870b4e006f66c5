package policy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"smbm/internal/core"
	"smbm/internal/pkt"
)

// valCfg is a 4-port value-model switch with values up to 8.
func valCfg(buffer int) core.Config {
	return core.Config{
		Model:    core.ModelValue,
		Ports:    4,
		Buffer:   buffer,
		MaxLabel: 8,
		Speedup:  1,
	}
}

// fillValues builds a switch holding the given per-port value multisets.
func fillValues(t *testing.T, cfg core.Config, queues [][]int) *core.Switch {
	t.Helper()
	sw := core.MustNew(cfg, Greedy{})
	for port, vals := range queues {
		for _, v := range vals {
			if err := sw.Arrive(pkt.NewValue(port, v)); err != nil {
				t.Fatalf("fillValues: %v", err)
			}
		}
	}
	return sw
}

func TestLQDValueModel(t *testing.T) {
	t.Run("accepts with free space", func(t *testing.T) {
		sw := fillValues(t, valCfg(8), [][]int{{1}, {2}, nil, nil})
		if d := (VLQD{}).Admit(sw, pkt.NewValue(2, 5)); !d.Accept || d.Push {
			t.Errorf("got %+v", d)
		}
	})

	t.Run("evicts from the longest queue", func(t *testing.T) {
		sw := fillValues(t, valCfg(6), [][]int{{5, 5, 5, 5}, {3}, {2}, nil})
		d := (VLQD{}).Admit(sw, pkt.NewValue(3, 1))
		if !d.Push || d.Victim != 0 {
			t.Errorf("got %+v, want push-out from 0", d)
		}
	})

	t.Run("own longest queue: arrival beats cheaper minimum", func(t *testing.T) {
		sw := fillValues(t, valCfg(4), [][]int{{2, 5, 7}, {4}, nil, nil})
		d := (VLQD{}).Admit(sw, pkt.NewValue(0, 6))
		if !d.Push || d.Victim != 0 {
			t.Errorf("got %+v, want push-out of own minimum", d)
		}
	})

	t.Run("own longest queue: cheap arrival dropped", func(t *testing.T) {
		sw := fillValues(t, valCfg(4), [][]int{{2, 5, 7}, {4}, nil, nil})
		if d := (VLQD{}).Admit(sw, pkt.NewValue(0, 2)); d.Accept {
			t.Errorf("got %+v, want drop (arrival == current min)", d)
		}
	})

	t.Run("length ties prefer the cheaper minimum", func(t *testing.T) {
		sw := fillValues(t, valCfg(4), [][]int{{8, 8}, {1, 7}, nil, nil})
		d := (VLQD{}).Admit(sw, pkt.NewValue(2, 5))
		if !d.Push || d.Victim != 1 {
			t.Errorf("got %+v, want push-out from 1 (holds the 1)", d)
		}
	})
}

func TestMVD(t *testing.T) {
	t.Run("pushes out the global minimum", func(t *testing.T) {
		sw := fillValues(t, valCfg(4), [][]int{{5}, {2, 6}, {7}, nil})
		d := (MVD{}).Admit(sw, pkt.NewValue(3, 3))
		if !d.Push || d.Victim != 1 {
			t.Errorf("got %+v, want push-out from 1 (min value 2)", d)
		}
	})

	t.Run("drops arrivals not above the minimum", func(t *testing.T) {
		sw := fillValues(t, valCfg(4), [][]int{{5}, {2, 6}, {7}, nil})
		if d := (MVD{}).Admit(sw, pkt.NewValue(3, 2)); d.Accept {
			t.Errorf("got %+v, want drop (arrival equals min)", d)
		}
	})

	t.Run("min ties go to the longest queue", func(t *testing.T) {
		sw := fillValues(t, valCfg(6), [][]int{{2}, {2, 3, 4}, {8, 8}, nil})
		d := (MVD{}).Admit(sw, pkt.NewValue(3, 5))
		if !d.Push || d.Victim != 1 {
			t.Errorf("got %+v, want push-out from 1 (longer of the tied)", d)
		}
	})
}

func TestMVD1KeepsLastPacket(t *testing.T) {
	// The global minimum (value 1) is alone in queue 0; MVD evicts it,
	// MVD1 goes for the cheapest among queues holding >= 2.
	sw := fillValues(t, valCfg(5), [][]int{{1}, {3, 6}, {4, 7}, nil})
	if d := (MVD{}).Admit(sw, pkt.NewValue(3, 8)); !d.Push || d.Victim != 0 {
		t.Errorf("MVD got %+v, want push-out from 0", d)
	}
	if d := (MVD1{}).Admit(sw, pkt.NewValue(3, 8)); !d.Push || d.Victim != 1 {
		t.Errorf("MVD1 got %+v, want push-out from 1", d)
	}
	// Only singleton queues: MVD1 drops.
	sw = fillValues(t, valCfg(4), [][]int{{1}, {2}, {3}, {4}})
	if d := (MVD1{}).Admit(sw, pkt.NewValue(0, 8)); d.Accept {
		t.Errorf("MVD1 with singleton queues got %+v, want drop", d)
	}
}

func TestMRD(t *testing.T) {
	t.Run("pushes out the max length/avg ratio", func(t *testing.T) {
		// q0: len 3, avg 2 -> ratio 1.5; q1: len 2, avg 8 -> 0.25.
		sw := fillValues(t, valCfg(5), [][]int{{2, 2, 2}, {8, 8}, nil, nil})
		d := (MRD{}).Admit(sw, pkt.NewValue(2, 5))
		if !d.Push || d.Victim != 0 {
			t.Errorf("got %+v, want push-out from 0", d)
		}
	})

	t.Run("drops arrivals below the global minimum", func(t *testing.T) {
		sw := fillValues(t, valCfg(5), [][]int{{2, 2, 2}, {8, 8}, nil, nil})
		if d := (MRD{}).Admit(sw, pkt.NewValue(2, 1)); d.Accept {
			t.Errorf("got %+v, want drop (arrival below global min)", d)
		}
	})

	t.Run("equal minimum pushes (LQD emulation)", func(t *testing.T) {
		sw := fillValues(t, valCfg(5), [][]int{{2, 2, 2}, {8, 8}, nil, nil})
		d := (MRD{}).Admit(sw, pkt.NewValue(2, 2))
		if !d.Push || d.Victim != 0 {
			t.Errorf("got %+v, want push-out from 0", d)
		}
	})

	t.Run("own max-ratio queue needs a strict improvement", func(t *testing.T) {
		// Queue 0 is the (virtual) max ratio; an arrival matching its
		// minimum is dropped, a better one displaces the minimum.
		sw := fillValues(t, valCfg(5), [][]int{{2, 2, 2, 2}, {8}, nil, nil})
		if d := (MRD{}).Admit(sw, pkt.NewValue(0, 2)); d.Accept {
			t.Errorf("got %+v, want drop", d)
		}
		d := (MRD{}).Admit(sw, pkt.NewValue(0, 5))
		if !d.Push || d.Victim != 0 {
			t.Errorf("got %+v, want push-out of own minimum", d)
		}
	})

	t.Run("victim queue may differ from the global minimum's", func(t *testing.T) {
		// q0: len 3 avg 5 -> 0.6; q1: len 1 value 1 -> ratio 1.
		// Global min 1 < arrival 4 allows the push, but the victim is
		// q1 (max ratio), exactly as the paper specifies.
		sw := fillValues(t, valCfg(4), [][]int{{5, 5, 5}, {1}, nil, nil})
		d := (MRD{}).Admit(sw, pkt.NewValue(2, 4))
		if !d.Push || d.Victim != 1 {
			t.Errorf("got %+v, want push-out from 1", d)
		}
	})

	t.Run("ratio ties prefer the smaller minimum", func(t *testing.T) {
		// Both queues: len 2, sum 8 -> equal ratios; q1 holds the 3.
		sw := fillValues(t, valCfg(4), [][]int{{4, 4}, {3, 5}, nil, nil})
		d := (MRD{}).Admit(sw, pkt.NewValue(2, 7))
		if !d.Push || d.Victim != 1 {
			t.Errorf("got %+v, want push-out from 1", d)
		}
	})

	t.Run("unit values reduce MRD to LQD", func(t *testing.T) {
		cfg := core.Config{Model: core.ModelValue, Ports: 3, Buffer: 9, MaxLabel: 1, Speedup: 1}
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 50; trial++ {
			lens := []int{rng.Intn(4), rng.Intn(4), rng.Intn(4)}
			total := lens[0] + lens[1] + lens[2]
			if total < cfg.Buffer {
				lens[0] += cfg.Buffer - total
			}
			queues := make([][]int, 3)
			for q, n := range lens {
				for i := 0; i < n; i++ {
					queues[q] = append(queues[q], 1)
				}
			}
			sw := fillValues(t, cfg, queues)
			p := pkt.NewValue(rng.Intn(3), 1)
			dm := (MRD{}).Admit(sw, p)
			dl := (VLQD{}).Admit(sw, p)
			// The paper: "MRD emulates LQD in case all packets have
			// unit values" — identical decisions, victim included.
			if dm != dl {
				t.Fatalf("lens %v arrival %v: MRD %+v, LQD %+v", lens, p, dm, dl)
			}
		}
	})
}

func TestNHSTV(t *testing.T) {
	// k=8, H_8 = 2.7179. Value 8: threshold B/(1·H_8); value 1:
	// threshold B/(8·H_8). With B=32: 11.77 and 1.47.
	cfg := core.Config{Model: core.ModelValue, Ports: 8, Buffer: 32, MaxLabel: 8, Speedup: 1}
	mk := func(lens []int) *core.Switch {
		queues := make([][]int, 8)
		for q, n := range lens {
			for i := 0; i < n; i++ {
				queues[q] = append(queues[q], q+1)
			}
		}
		return fillValues(t, cfg, queues)
	}
	sw := mk([]int{0, 0, 0, 0, 0, 0, 0, 11})
	if d := (NHSTV{}).Admit(sw, pkt.NewValue(7, 8)); !d.Accept {
		t.Error("value 8 below threshold rejected")
	}
	sw = mk([]int{0, 0, 0, 0, 0, 0, 0, 12})
	if d := (NHSTV{}).Admit(sw, pkt.NewValue(7, 8)); d.Accept {
		t.Error("value 8 above threshold accepted")
	}
	sw = mk([]int{1, 0, 0, 0, 0, 0, 0, 0})
	if d := (NHSTV{}).Admit(sw, pkt.NewValue(0, 1)); !d.Accept {
		t.Error("value 1 below threshold rejected")
	}
	sw = mk([]int{2, 0, 0, 0, 0, 0, 0, 0})
	if d := (NHSTV{}).Admit(sw, pkt.NewValue(0, 1)); d.Accept {
		t.Error("value 1 above threshold accepted")
	}
}

func TestValueRegistries(t *testing.T) {
	if got := len(ForValueUniform()); got != 7 {
		t.Errorf("ForValueUniform: %d policies, want 7", got)
	}
	if got := len(ForValueByPort()); got != 8 {
		t.Errorf("ForValueByPort: %d policies, want 8", got)
	}
	for _, p := range ForValueByPort() {
		if got := ValueByName(p.Name()); got == nil {
			t.Errorf("ValueByName(%q) = nil", p.Name())
		}
	}
	if ValueByName("bogus") != nil {
		t.Error("ValueByName(bogus) != nil")
	}
}

// TestCombinedRegistry: the retired combined model's registry resolves
// no name, not even one from the other models' rosters.
func TestCombinedRegistry(t *testing.T) {
	names := []string{"RVD", "bogus", ""}
	for _, roster := range [][]core.Policy{ForProcessing(), Experimental(), ForValueByPort(), ValueExperimental()} {
		for _, p := range roster {
			names = append(names, p.Name())
		}
	}
	for _, name := range names {
		if got := CombinedByName(name); got != nil {
			t.Errorf("CombinedByName(%q) = %s, want nil", name, got.Name())
		}
	}
}

// TestQuickValuePoliciesNeverErr drives every value policy through random
// saturating traffic with engine invariant checks enabled.
func TestQuickValuePoliciesNeverErr(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := valCfg(6)
		cfg.CheckInvariants = true
		for _, pol := range ForValueByPort() {
			sw := core.MustNew(cfg, pol)
			for slot := 0; slot < 30; slot++ {
				burst := make([]pkt.Packet, rng.Intn(8))
				for i := range burst {
					burst[i] = pkt.NewValue(rng.Intn(cfg.Ports), 1+rng.Intn(cfg.MaxLabel))
				}
				if err := sw.Step(burst); err != nil {
					t.Logf("%s: %v", pol.Name(), err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg(30)); err != nil {
		t.Error(err)
	}
}

// TestQuickMVDMaximizesBufferedValue: after any arrival sequence into a
// full buffer, MVD's buffered total value is at least LQD's — the
// greedy-value property that motivates the policy.
func TestQuickMVDMaximizesBufferedValue(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mvd := core.MustNew(valCfg(5), MVD{})
		lqd := core.MustNew(valCfg(5), VLQD{})
		for i := 0; i < 40; i++ {
			p := pkt.NewValue(rng.Intn(4), 1+rng.Intn(8))
			if err := mvd.Arrive(p); err != nil {
				return false
			}
			if err := lqd.Arrive(p); err != nil {
				return false
			}
		}
		var mv, lv int64
		for q := 0; q < 4; q++ {
			mv += mvd.QueueValueSum(q)
			lv += lqd.QueueValueSum(q)
		}
		return mv >= lv
	}
	if err := quick.Check(f, qcfg(100)); err != nil {
		t.Error(err)
	}
}
