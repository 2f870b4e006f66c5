package experiments

import (
	"testing"

	"smbm/internal/core"
	"smbm/internal/spec"
)

// smallOpts shrinks the panels to seconds-scale for tests.
func smallOpts() Options {
	return Options{
		Slots:      600,
		Seeds:      2,
		Sources:    40,
		FlushEvery: 300,
		BaseSeed:   1,
	}
}

func TestPanelIDs(t *testing.T) {
	ids := PanelIDs()
	if len(ids) != 9 {
		t.Fatalf("%d panels, want 9", len(ids))
	}
	for _, id := range ids {
		if _, err := Panel(id, smallOpts()); err != nil {
			t.Errorf("Panel(%q): %v", id, err)
		}
	}
	if _, err := Panel("fig5.10", smallOpts()); err == nil {
		t.Error("unknown panel accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	sweep, err := Panel("fig5.1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Seeds != Defaults().Seeds {
		t.Errorf("seeds %d, want default %d", sweep.Seeds, Defaults().Seeds)
	}
}

func TestProcInstanceShape(t *testing.T) {
	inst, err := smallOpts().scaled(spec.Experiment{Name: "shape", Model: "processing", Sweep: "C", Values: []int{2},
		K: 8, B: 100, Traffic: spec.Traffic{Rate: 10}}).Instance(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Cfg.Model != core.ModelProcessing || inst.Cfg.Ports != 8 || inst.Cfg.Speedup != 2 {
		t.Errorf("config %+v", inst.Cfg)
	}
	if len(inst.Policies) != 8 {
		t.Errorf("%d policies, want 8", len(inst.Policies))
	}
	if inst.Provider.Slots() != smallOpts().Slots {
		t.Errorf("provider %d slots", inst.Provider.Slots())
	}
	// All packets legal for the config.
	cur, err := inst.Provider.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for t2 := 0; t2 < inst.Provider.Slots(); t2++ {
		for _, p := range cur.Next() {
			if p.Work != inst.Cfg.PortWork[p.Port] {
				t.Fatalf("packet %+v violates the configuration", p)
			}
		}
	}
}

func TestValInstanceShape(t *testing.T) {
	inst, err := smallOpts().scaled(spec.Experiment{Name: "shape", Model: "value", Sweep: "B", Values: []int{100},
		K: 8, C: 1, Label: "by-port", Traffic: spec.Traffic{Rate: 12}}).Instance(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Cfg.Model != core.ModelValue {
		t.Errorf("model %v", inst.Cfg.Model)
	}
	if len(inst.Policies) != 8 { // by-port roster includes NHSTV
		t.Errorf("%d policies, want 8", len(inst.Policies))
	}
	cur, err := inst.Provider.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for t2 := 0; t2 < inst.Provider.Slots(); t2++ {
		for _, p := range cur.Next() {
			if p.Value != p.Port+1 {
				t.Fatalf("by-port packet %+v", p)
			}
		}
	}
}

// TestPanel1Shape is the headline qualitative reproduction: on Fig. 5(1)
// LWD beats LQD, LQD beats BPD, and the greedy baseline trails everyone,
// at every k.
func TestPanel1Shape(t *testing.T) {
	sweep, err := Panel("fig5.1", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sweep.Xs = []int{8, 16, 24} // trim for test time
	res, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		lwd, lqd, bpd, grd := p.Ratio["LWD"].Mean, p.Ratio["LQD"].Mean, p.Ratio["BPD"].Mean, p.Ratio["Greedy"].Mean
		if !(lwd <= lqd+0.02) {
			t.Errorf("k=%d: LWD %.3f worse than LQD %.3f", p.X, lwd, lqd)
		}
		if !(lqd < bpd) {
			t.Errorf("k=%d: LQD %.3f not better than BPD %.3f", p.X, lqd, bpd)
		}
		if !(lwd < grd) {
			t.Errorf("k=%d: LWD %.3f not better than Greedy %.3f", p.X, lwd, grd)
		}
	}
}

// TestPanel7Shape: in the value≡port case MRD is never noticeably worse
// than LQD ("our experiments suggest that MRD is never explicitly worse
// than LQD") and MVD trails both.
func TestPanel7Shape(t *testing.T) {
	sweep, err := Panel("fig5.7", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sweep.Xs = []int{8, 16}
	res, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		mrd, lqd, mvd := p.Ratio["MRD"].Mean, p.Ratio["LQD"].Mean, p.Ratio["MVD"].Mean
		if mrd > lqd*1.05 {
			t.Errorf("k=%d: MRD %.3f explicitly worse than LQD %.3f", p.X, mrd, lqd)
		}
		if !(mvd > mrd) {
			t.Errorf("k=%d: MVD %.3f not trailing MRD %.3f", p.X, mvd, mrd)
		}
	}
}
