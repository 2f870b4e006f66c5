package search

import (
	"testing"

	"smbm/internal/core"
	"smbm/internal/policy"
)

// exhaustiveCfg is the fully enumerable micro-instance space: two ports
// with works {1,3}, buffer 2.
func exhaustiveCfg() core.Config {
	return core.Config{
		Model:    core.ModelProcessing,
		Ports:    2,
		Buffer:   2,
		MaxLabel: 3,
		Speedup:  1,
		PortWork: []int{1, 3},
	}
}

// TestExhaustiveWorstCaseTable computes the *exact* worst-case ratio of
// each processing policy over every trace of 4 slots with bursts of up
// to 2 packets (6^4 = 1296 instances) — a fully verified miniature of
// the paper's competitive-ratio landscape. The assertions: LWD respects
// Theorem 7 on the complete space; greedy tail-drop has a genuinely bad
// instance; and LWD's verified worst case is no worse than LQD's.
func TestExhaustiveWorstCaseTable(t *testing.T) {
	spec := ExhaustiveSpec{Cfg: exhaustiveCfg(), Slots: 4, MaxBurst: 2}
	worst := map[string]Worst{}
	for _, p := range []core.Policy{policy.LWD{}, policy.LQD{}, policy.Greedy{}, policy.BPD{}} {
		w, err := Exhaustive(spec, p)
		if err != nil {
			t.Fatal(err)
		}
		worst[p.Name()] = w
		t.Logf("%-6s exact worst ratio %.4f over %d instances (witness %v)",
			p.Name(), w.Ratio, w.Evaluated, w.Trace)
	}
	if worst["LWD"].Ratio > 2.0 {
		t.Errorf("LWD verified worst %.4f > 2 — Theorem 7 violated on the complete space", worst["LWD"].Ratio)
	}
	if worst["LWD"].Ratio > worst["LQD"].Ratio+1e-9 {
		t.Errorf("LWD worst (%.4f) exceeds LQD's (%.4f) on the complete space",
			worst["LWD"].Ratio, worst["LQD"].Ratio)
	}
	if worst["Greedy"].Ratio < 1.15 {
		t.Errorf("greedy worst %.4f — expected a real adversarial instance in the space", worst["Greedy"].Ratio)
	}
	for name, w := range worst {
		if w.Evaluated != 1296 {
			t.Errorf("%s evaluated %d instances, want 1296", name, w.Evaluated)
		}
	}
}

// TestExhaustiveScoresWholeSpace: every trace of the bounded space is
// scored, however many arrivals it carries (here up to 25).
func TestExhaustiveScoresWholeSpace(t *testing.T) {
	cfg := core.Config{Model: core.ModelProcessing, Ports: 1, Buffer: 2, MaxLabel: 1, Speedup: 1}
	w, err := Exhaustive(ExhaustiveSpec{Cfg: cfg, Slots: 5, MaxBurst: 5}, policy.Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Evaluated != 6*6*6*6*6 {
		t.Errorf("evaluated %d traces, want all 6^5 = %d", w.Evaluated, 6*6*6*6*6)
	}
}

func TestExhaustiveValidation(t *testing.T) {
	if _, err := Exhaustive(ExhaustiveSpec{Cfg: exhaustiveCfg(), Slots: 0, MaxBurst: 1}, policy.LWD{}); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := Exhaustive(ExhaustiveSpec{Cfg: exhaustiveCfg(), Slots: 2, MaxBurst: 2}, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := Exhaustive(ExhaustiveSpec{Cfg: exhaustiveCfg(), Slots: 12, MaxBurst: 4, Limit: 100}, policy.LWD{}); err == nil {
		t.Error("oversized space accepted")
	}
	if _, err := Exhaustive(ExhaustiveSpec{Cfg: core.Config{}, Slots: 1, MaxBurst: 1}, policy.LWD{}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestExhaustiveValueModel runs the complete enumeration for MRD on a
// tiny value-model space and logs its verified worst case — the
// open-problem record at this scale.
func TestExhaustiveValueModel(t *testing.T) {
	spec := ExhaustiveSpec{
		Cfg: core.Config{
			Model:    core.ModelValue,
			Ports:    2,
			Buffer:   2,
			MaxLabel: 2,
			Speedup:  1,
		},
		Slots:    3,
		MaxBurst: 2,
	}
	w, err := Exhaustive(spec, policy.MRD{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MRD verified worst on the complete tiny space: %.4f over %d instances", w.Ratio, w.Evaluated)
	if w.Ratio > 2.0 {
		t.Errorf("MRD verified worst %.4f — record against the conjecture", w.Ratio)
	}
}
