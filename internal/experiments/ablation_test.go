package experiments

import (
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
)

// lwdSmallTie is LWD with the opposite tie-break (smallest port index,
// i.e. smallest required processing, wins ties) — the ablation DESIGN.md
// calls out for the "choose maximal among those queues" reading of the
// paper.
var lwdSmallTie = core.PolicyFunc{PolicyName: "LWD-smalltie", Func: func(v core.View, p pkt.Packet) core.Decision {
	if v.Free() > 0 {
		return core.Accept()
	}
	i := p.Port
	heaviest, heaviestWork := -1, -1
	for j := 0; j < v.Ports(); j++ {
		w := v.QueueWork(j)
		if j == i {
			w += v.PortWork(i)
		}
		if w > heaviestWork { // strict: ties keep the smallest index
			heaviest, heaviestWork = j, w
		}
	}
	if heaviest != i {
		return core.PushOut(heaviest)
	}
	return core.Drop()
}}

// ablationCell runs the fig5.1 mid cell with extra policies appended.
func ablationCell(t testing.TB, extra ...core.Policy) map[string]float64 {
	o := smallOpts()
	e, err := panelSpec("fig5.1", o)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := e.Instance(16, 11)
	if err != nil {
		t.Fatal(err)
	}
	inst.Policies = append([]core.Policy{policy.LWD{}, policy.LQD{}}, extra...)
	results, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(results))
	for _, r := range results {
		out[r.Policy] = r.Ratio
	}
	return out
}

// TestAblationLWDTieBreak: the tie-break direction must not change LWD's
// competitive behaviour materially — ties on *total work* are rare under
// stochastic traffic. A large gap would mean the policy's performance
// hinges on an under-specified detail of the paper.
func TestAblationLWDTieBreak(t *testing.T) {
	ratios := ablationCell(t, lwdSmallTie)
	big, small := ratios["LWD"], ratios["LWD-smalltie"]
	if small == 0 || big == 0 {
		t.Fatalf("missing ratios: %v", ratios)
	}
	if diff := small/big - 1; diff > 0.05 || diff < -0.05 {
		t.Errorf("tie-break changes LWD ratio by %.1f%% (%v vs %v)", diff*100, big, small)
	}
}

// BenchmarkAblationLWDTieBreak reports both ratios for the record.
func BenchmarkAblationLWDTieBreak(b *testing.B) {
	var big, small float64
	for i := 0; i < b.N; i++ {
		ratios := ablationCell(b, lwdSmallTie)
		big, small = ratios["LWD"], ratios["LWD-smalltie"]
	}
	b.ReportMetric(big, "ratio-maxtie")
	b.ReportMetric(small, "ratio-mintie")
}
