package experiments

import (
	"fmt"
	"strconv"

	"smbm/internal/faults"
	"smbm/internal/metrics"
	"smbm/internal/spec"
	"smbm/internal/tablefmt"
)

// FaultRow reports how one processing-model policy degrades when the
// canonical fault mix is injected into both the policy and the OPT
// proxy: the mean empirical competitive ratio on the nominal switch,
// the same under faults, and the multiplicative penalty.
type FaultRow struct {
	// Policy is the policy name.
	Policy string
	// Nominal is the mean competitive ratio without faults.
	Nominal float64
	// Faulted is the mean competitive ratio under the canonical mix.
	Faulted float64
	// Penalty is Faulted / Nominal: how much of the policy's
	// competitiveness the fault mix costs (1.0 = fully graceful).
	Penalty float64
}

// Fault-panel geometry: a mid-sized contiguous switch with speedup 2,
// so a CoreSlowdown to C'=1 is a genuine degradation.
const (
	faultPanelK = 8
	faultPanelB = 128
	faultPanelC = 2
)

// FaultDegradation runs the "faults" experiment panel: the full
// processing-model roster on identical MMPP traffic, once nominal and
// once under faults.CanonicalMix — rotating core slowdowns and port
// blackouts, transient buffer squeezes, and burst amplification —
// injected symmetrically into every policy and the OPT proxy. The gap
// between the two ratios is the sensitivity-to-faults answer the
// competitive analysis cannot give: how far off the nominal point each
// policy's guarantee erodes.
func FaultDegradation(o Options) ([]FaultRow, error) {
	o = o.withDefaults()
	mix := faults.CanonicalMix(faultPanelK, faultPanelB, faultPanelC, int64(o.Slots))
	e := o.scaled(spec.Experiment{Name: "faults", Model: "processing", Sweep: "C", Values: []int{faultPanelC},
		K: faultPanelK, B: faultPanelB, Traffic: spec.Traffic{Load: loadProcessing}})

	nominal := map[string]*metrics.Welford{}
	faulted := map[string]*metrics.Welford{}
	var order []string
	for si := 0; si < o.Seeds; si++ {
		seed := o.BaseSeed + int64(si)*7_919
		inst, err := e.Instance(faultPanelC, seed)
		if err != nil {
			return nil, err
		}

		base, err := inst.Run()
		if err != nil {
			return nil, err
		}
		inst.Wrap = faults.Wrapper(mix, faultPanelK, seed)
		degraded, err := inst.Run()
		if err != nil {
			return nil, err
		}
		if len(degraded) != len(base) {
			return nil, fmt.Errorf("experiments: fault run returned %d results, nominal %d", len(degraded), len(base))
		}
		for i, r := range base {
			if nominal[r.Policy] == nil {
				nominal[r.Policy] = &metrics.Welford{}
				faulted[r.Policy] = &metrics.Welford{}
				order = append(order, r.Policy)
			}
			nominal[r.Policy].Add(r.Ratio)
			faulted[r.Policy].Add(degraded[i].Ratio)
		}
	}

	rows := make([]FaultRow, 0, len(order))
	for _, name := range order {
		n := nominal[name].Summary().Mean
		f := faulted[name].Summary().Mean
		penalty := 0.0
		if n > 0 {
			penalty = f / n
		}
		rows = append(rows, FaultRow{Policy: name, Nominal: n, Faulted: f, Penalty: penalty})
	}
	return rows, nil
}

// FaultTable renders the fault-degradation rows as an aligned table.
func FaultTable(rows []FaultRow) string {
	headers := []string{"policy", "nominal", "faulted", "penalty"}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Policy,
			strconv.FormatFloat(r.Nominal, 'f', 3, 64),
			strconv.FormatFloat(r.Faulted, 'f', 3, 64),
			strconv.FormatFloat(r.Penalty, 'f', 3, 64) + "x",
		})
	}
	return tablefmt.Render(headers, out)
}

// CanonicalFaultMix exposes the panel's fault mix for the given run
// horizon, so callers can introspect the exact schedule behind the
// table (via faults.Spec.Schedule).
func CanonicalFaultMix(horizon int64) faults.Spec {
	return faults.CanonicalMix(faultPanelK, faultPanelB, faultPanelC, horizon)
}
