package smbm_test

import (
	"testing"

	"smbm"
)

// quickCfg is the quickstart configuration: four services of different
// costs behind one shared buffer.
func quickCfg() smbm.Config {
	return smbm.Config{
		Model:    smbm.ModelProcessing,
		Ports:    4,
		Buffer:   64,
		MaxLabel: 6,
		Speedup:  1,
		PortWork: []int{1, 2, 3, 6},
	}
}

func TestPublicQuickstartFlow(t *testing.T) {
	sw, err := smbm.NewSwitch(quickCfg(), smbm.LWD())
	if err != nil {
		t.Fatal(err)
	}
	burst := []smbm.Packet{
		smbm.WorkPacket(0, 1),
		smbm.WorkPacket(3, 6),
		smbm.WorkPacket(1, 2),
	}
	if err := sw.Step(burst); err != nil {
		t.Fatal(err)
	}
	sw.Drain()
	st := sw.Stats()
	if st.Transmitted != 3 {
		t.Errorf("transmitted %d, want 3", st.Transmitted)
	}
}

func TestPolicyRosters(t *testing.T) {
	if got := len(smbm.ProcessingPolicies()); got != 8 {
		t.Errorf("processing roster %d, want 8", got)
	}
	if got := len(smbm.ValuePolicies()); got != 7 {
		t.Errorf("value roster %d, want 7", got)
	}
	if got := len(smbm.ValueByPortPolicies()); got != 8 {
		t.Errorf("value-by-port roster %d, want 8", got)
	}
	names := map[string]smbm.Policy{
		"LWD": smbm.LWD(), "LQD": smbm.LQD(), "BPD": smbm.BPD(), "BPD1": smbm.BPD1(),
		"Greedy": smbm.Greedy(), "NHST": smbm.NHST(), "NEST": smbm.NEST(), "NHDT": smbm.NHDT(),
		"MRD": smbm.MRD(), "MVD": smbm.MVD(), "MVD1": smbm.MVD1(), "NHSTV": smbm.NHSTV(),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("policy %q reports name %q", want, p.Name())
		}
	}
	if got := smbm.ValueLQD().Name(); got != "LQD" {
		t.Errorf("ValueLQD name %q", got)
	}
}

func TestCompetitiveRatioOnMMPP(t *testing.T) {
	cfg := quickCfg()
	mmpp := smbm.MMPPConfig{
		Sources:      30,
		POnOff:       0.1,
		POffOn:       0.01,
		Label:        smbm.LabelWorkByPort,
		Ports:        cfg.Ports,
		MaxLabel:     cfg.MaxLabel,
		PortWork:     cfg.PortWork,
		PortAffinity: true,
		Seed:         5,
	}
	mmpp.LambdaOn = mmpp.LambdaForRate(5)
	gen, err := smbm.NewMMPP(mmpp)
	if err != nil {
		t.Fatal(err)
	}
	trace := smbm.RecordTrace(gen, 2000)
	ratio, err := smbm.CompetitiveRatio(cfg, smbm.LWD(), trace, 500)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1.0 || ratio > 2.5 {
		t.Errorf("LWD empirical ratio %.3f outside plausible range", ratio)
	}

	results, err := smbm.Compare(cfg, smbm.ProcessingPolicies(), trace, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("%d results", len(results))
	}
	// LWD must be the best or tied-best push-out policy on this load.
	byName := map[string]smbm.Result{}
	for _, r := range results {
		byName[r.Policy] = r
	}
	if byName["LWD"].Ratio > byName["BPD"].Ratio {
		t.Errorf("LWD %.3f worse than BPD %.3f", byName["LWD"].Ratio, byName["BPD"].Ratio)
	}
}

func TestExactOptimumFacade(t *testing.T) {
	cfg := smbm.Config{
		Model:    smbm.ModelProcessing,
		Ports:    2,
		Buffer:   3,
		MaxLabel: 2,
		Speedup:  1,
		PortWork: []int{1, 2},
	}
	tr := smbm.Trace{{smbm.WorkPacket(0, 1), smbm.WorkPacket(1, 2)}}
	got, err := smbm.ExactOptimum(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("exact = %d, want 2", got)
	}
	vcfg := smbm.Config{Model: smbm.ModelValue, Ports: 2, Buffer: 3, MaxLabel: 4, Speedup: 1}
	vtr := smbm.Trace{{smbm.ValuePacket(0, 4), smbm.ValuePacket(1, 2)}}
	gotV, err := smbm.ExactOptimum(vcfg, vtr)
	if err != nil {
		t.Fatal(err)
	}
	if gotV != 6 {
		t.Errorf("exact value = %d, want 6", gotV)
	}
}

func TestLowerBoundsFacade(t *testing.T) {
	cs, err := smbm.LowerBounds()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 9 {
		t.Errorf("%d constructions, want 9", len(cs))
	}
	if got := len(smbm.PanelIDs()); got != 9 {
		t.Errorf("%d panels, want 9", got)
	}
	if got := smbm.ContiguousWorks(3); len(got) != 3 || got[2] != 3 {
		t.Errorf("ContiguousWorks(3) = %v", got)
	}
}

func TestOptProxyFacade(t *testing.T) {
	opt, err := smbm.NewOptProxy(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := smbm.RunTrace(opt, smbm.Trace{{smbm.WorkPacket(0, 1)}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Transmitted != 1 {
		t.Errorf("proxy transmitted %d", stats.Transmitted)
	}
	threshold := smbm.StaticThreshold("opt-script", []int{2, 2, 2, 2})
	if threshold.Name() != "opt-script" {
		t.Errorf("threshold name %q", threshold.Name())
	}
}
