package sim

import (
	"errors"
	"strings"
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/traffic"
)

func procCfg() core.Config {
	return core.Config{
		Model:    core.ModelProcessing,
		Ports:    3,
		Buffer:   6,
		MaxLabel: 3,
		Speedup:  1,
		PortWork: []int{1, 2, 3},
	}
}

func valCfg() core.Config {
	return core.Config{
		Model:    core.ModelValue,
		Ports:    3,
		Buffer:   6,
		MaxLabel: 5,
		Speedup:  1,
	}
}

func TestRunTraceDrainsAtEnd(t *testing.T) {
	sw := core.MustNew(procCfg(), policy.Greedy{})
	tr := traffic.Slots(pkt.Burst(pkt.NewWork(2, 3), 4))
	stats, err := RunTrace(sw, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Transmitted != 4 {
		t.Errorf("transmitted %d, want 4 (final drain)", stats.Transmitted)
	}
}

func TestRunTracePeriodicFlush(t *testing.T) {
	// Work-3 packets arriving every slot into a length-4 trace. With
	// flushEvery=2 the system drains mid-run, so the heavy queue never
	// exceeds what two slots can deposit.
	sw := core.MustNew(procCfg(), policy.Greedy{})
	tr := traffic.Slots(
		[]pkt.Packet{pkt.NewWork(2, 3)},
		[]pkt.Packet{pkt.NewWork(2, 3)},
		[]pkt.Packet{pkt.NewWork(2, 3)},
		[]pkt.Packet{pkt.NewWork(2, 3)},
	)
	stats, err := RunTrace(sw, tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Transmitted != 4 {
		t.Errorf("transmitted %d, want 4", stats.Transmitted)
	}
	// The flush slots show up in the slot counter: 4 trace slots plus
	// drain slots.
	if stats.Slots <= 4 {
		t.Errorf("slots %d, want > 4 (flush drains count)", stats.Slots)
	}
}

func TestRunTraceSurfacesErrors(t *testing.T) {
	bad := core.PolicyFunc{PolicyName: "bad", Func: func(core.View, pkt.Packet) core.Decision {
		return core.Accept() // even when full
	}}
	sw := core.MustNew(procCfg(), bad)
	tr := traffic.Slots(pkt.Burst(pkt.NewWork(0, 1), 10))
	if _, err := RunTrace(sw, tr, 0); err == nil {
		t.Error("policy error did not surface")
	}
}

func TestNewOptProxyMatchesModel(t *testing.T) {
	p, err := NewOptProxy(procCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(interface{ Occupancy() int }); !ok {
		t.Error("processing proxy lacks Occupancy")
	}
	v, err := NewOptProxy(valCfg())
	if err != nil {
		t.Fatal(err)
	}
	if v.Name() != "OPT(SPQ)" {
		t.Errorf("proxy name %q", v.Name())
	}
	if _, err := NewOptProxy(core.Config{}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestInstanceRunProcessing(t *testing.T) {
	inst := Instance{
		Cfg:      procCfg(),
		Policies: []core.Policy{policy.Greedy{}, policy.LWD{}},
		Provider: traffic.Slots(
			pkt.Concat(pkt.Burst(pkt.NewWork(0, 1), 8), pkt.Burst(pkt.NewWork(2, 3), 8)),
			nil, nil,
		),
	}
	results, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Throughput <= 0 {
			t.Errorf("%s throughput %d", r.Policy, r.Throughput)
		}
		if r.Ratio < 1.0-1e-9 && r.OptThroughput >= r.Throughput {
			t.Errorf("%s ratio %v below 1 with opt >= alg", r.Policy, r.Ratio)
		}
		if r.OptThroughput != results[0].OptThroughput {
			t.Error("policies compared against different OPT runs")
		}
	}
}

func TestInstanceRunValueModel(t *testing.T) {
	inst := Instance{
		Cfg:      valCfg(),
		Policies: []core.Policy{policy.MRD{}},
		Provider: traffic.Slots(
			pkt.Concat(pkt.Burst(pkt.NewValue(0, 5), 4), pkt.Burst(pkt.NewValue(1, 1), 8)),
		),
	}
	results, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Throughput == 0 || results[0].OptThroughput == 0 {
		t.Errorf("zero throughput: %+v", results[0])
	}
}

func TestInstanceRunPropagatesErrors(t *testing.T) {
	inst := Instance{
		Cfg:      core.Config{}, // invalid
		Policies: []core.Policy{policy.Greedy{}},
	}
	_, runErr := inst.Run()
	if runErr == nil {
		t.Error("invalid config did not error")
	}
	if !errors.Is(runErr, core.ErrBadConfig) {
		t.Error("error does not wrap ErrBadConfig")
	}
	inst.Cfg = procCfg()
	if _, err := inst.Run(); err == nil || !strings.Contains(err.Error(), "Instance.Provider") {
		t.Errorf("nil Provider: got %v, want an error naming Instance.Provider", err)
	}
}

func TestRatioConventions(t *testing.T) {
	cases := []struct {
		o, a int64
		want float64
	}{
		{10, 5, 2},
		{0, 0, 1},
		{5, 5, 1},
	}
	for _, c := range cases {
		if got := ratio(c.o, c.a); got != c.want {
			t.Errorf("ratio(%d, %d) = %v, want %v", c.o, c.a, got, c.want)
		}
	}
	if got := ratio(3, 0); !isInf(got) {
		t.Errorf("ratio(3, 0) = %v, want +Inf", got)
	}
}

func isInf(f float64) bool { return f > 1e300 }
