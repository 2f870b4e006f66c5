package experiments

import (
	"testing"

	"smbm/internal/core"
	"smbm/internal/policy"
	"smbm/internal/sim"
)

// TestAblationTVDVsMRD executes the paper's Section IV design argument:
// "the total value per queue constitutes a poor choice but normalized
// value can potentially achieve constant competitiveness". On the
// value≡port workload, Total-Value-Drop (the unnormalized ablation of
// MRD) must lose clearly to MRD: it raids the high-value queues simply
// because they are rich.
func TestAblationTVDVsMRD(t *testing.T) {
	o := smallOpts()
	o.Slots = 1500
	e, err := panelSpec("fig5.7", o)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := e.Instance(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	inst.Policies = append([]core.Policy{policy.MRD{}, policy.VLQD{}}, policy.ValueExperimental()...)
	results, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]sim.Result{}
	for _, r := range results {
		byName[r.Policy] = r
	}
	mrd, tvd := byName["MRD"], byName["TVD"]
	t.Logf("value≡port: MRD %.3f, LQD %.3f, TVD %.3f", mrd.Ratio, byName["LQD"].Ratio, tvd.Ratio)
	if tvd.Ratio < mrd.Ratio*1.05 {
		t.Errorf("TVD (%.3f) not clearly worse than MRD (%.3f); the paper's normalization argument did not reproduce",
			tvd.Ratio, mrd.Ratio)
	}
}
