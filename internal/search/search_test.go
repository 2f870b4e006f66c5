package search

import (
	"strings"
	"testing"

	"smbm/internal/core"
	"smbm/internal/policy"
)

func procSpec(p core.Policy) Spec {
	return Spec{
		Cfg: core.Config{
			Model:    core.ModelProcessing,
			Ports:    3,
			Buffer:   4,
			MaxLabel: 3,
			Speedup:  1,
			PortWork: []int{1, 2, 3},
		},
		Policy:   p,
		Slots:    5,
		MaxBurst: 4,
		Trials:   60,
		Climb:    20,
		Seed:     1,
	}
}

func valSpec(p core.Policy) Spec {
	return Spec{
		Cfg: core.Config{
			Model:    core.ModelValue,
			Ports:    3,
			Buffer:   4,
			MaxLabel: 4,
			Speedup:  1,
		},
		Policy:   p,
		Slots:    5,
		MaxBurst: 4,
		Trials:   60,
		Climb:    20,
		Seed:     1,
	}
}

func TestSpecValidation(t *testing.T) {
	s := procSpec(policy.LWD{})
	s.Policy = nil
	if _, err := Run(s); err == nil {
		t.Error("nil policy accepted")
	}
	s = procSpec(policy.LWD{})
	s.Slots = 0
	if _, err := Run(s); err == nil {
		t.Error("zero slots accepted")
	}
	s = procSpec(policy.LWD{})
	s.Trials = 0
	if _, err := Run(s); err == nil {
		t.Error("zero trials accepted")
	}
	s = procSpec(policy.LWD{})
	s.MaxBurst = 0
	if _, err := Run(s); err == nil {
		t.Error("zero burst accepted")
	}
	// A negative climb would silently act as 0 (no hill-climbing).
	s = procSpec(policy.LWD{})
	s.Climb = -3
	if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "climb") {
		t.Errorf("climb -3: err = %v, want one naming climb", err)
	}
}

// TestHuntRespectsTheorem7: no instance the hunt constructs may push LWD
// above ratio 2 — the upper bound run as a falsification attempt. (At
// this instance scale the hunt in fact finds nothing above 1.0: LWD is
// empirically *optimal* on tiny instances, which the log records.)
func TestHuntRespectsTheorem7(t *testing.T) {
	w, err := Run(procSpec(policy.LWD{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("LWD worst found: ratio %.3f over %d instances", w.Ratio, w.Evaluated)
	if w.Ratio > 2.0 {
		t.Errorf("found LWD ratio %.3f > 2 on %v — Theorem 7 violated", w.Ratio, w.Trace)
	}
	if w.Evaluated == 0 || len(w.Trace) == 0 {
		t.Errorf("empty hunt result: %+v", w)
	}
}

// TestHuntFindsGreedyCounterexamples is the search's canary: greedy
// tail-drop has known bad tiny instances (hoarding expensive packets
// blocks later cheap ones), so a working hunt must find a ratio well
// above 1.
func TestHuntFindsGreedyCounterexamples(t *testing.T) {
	spec := procSpec(policy.Greedy{})
	spec.Cfg = core.Config{
		Model:    core.ModelProcessing,
		Ports:    2,
		Buffer:   2,
		MaxLabel: 3,
		Speedup:  1,
		PortWork: []int{1, 3},
	}
	spec.Slots = 7
	w, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if w.Ratio < 1.15 {
		t.Errorf("hunt found only ratio %.3f for Greedy; search is broken", w.Ratio)
	}
}

// TestHuntFindsLQDWorseThanLWD: at equal budget, the hunt must certify a
// worse ratio for LQD than for LWD (Theorem 4 vs Theorem 7 in miniature).
func TestHuntFindsLQDWorseThanLWD(t *testing.T) {
	lwd, err := Run(procSpec(policy.LWD{}))
	if err != nil {
		t.Fatal(err)
	}
	lqd, err := Run(procSpec(policy.LQD{}))
	if err != nil {
		t.Fatal(err)
	}
	if lqd.Ratio < lwd.Ratio {
		t.Errorf("hunt rates LQD (%.3f) better than LWD (%.3f)", lqd.Ratio, lwd.Ratio)
	}
}

// TestHuntMRDConjecture: the empirical side of the paper's open problem.
// On the searchable instance space MRD must stay below a small constant;
// the found worst case is logged as the library's running record.
func TestHuntMRDConjecture(t *testing.T) {
	w, err := Run(valSpec(policy.MRD{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MRD worst found: ratio %.3f (exact %d vs MRD %d) over %d instances",
		w.Ratio, w.Exact, w.Alg, w.Evaluated)
	if w.Ratio > 3.0 {
		t.Errorf("MRD ratio %.3f — evidence against the constant-competitiveness conjecture worth recording: %v",
			w.Ratio, w.Trace)
	}
}

// TestHuntDeterministic: equal seeds find equal worst cases.
func TestHuntDeterministic(t *testing.T) {
	a, err := Run(procSpec(policy.LQD{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(procSpec(policy.LQD{}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Ratio != b.Ratio || a.Exact != b.Exact {
		t.Errorf("hunt not deterministic: %+v vs %+v", a, b)
	}
}
