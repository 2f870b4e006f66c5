package experiments

import (
	"fmt"
	"strconv"

	"smbm/internal/faults"
	"smbm/internal/metrics"
	"smbm/internal/sim"
	"smbm/internal/spec"
	"smbm/internal/tablefmt"
)

// FaultRow reports how one policy's empirical competitive ratio erodes
// when a fault schedule is injected symmetrically into the policy and
// the OPT proxy. The faults panel averages both ratios over its seeds.
type FaultRow struct {
	// Policy is the policy name.
	Policy string
	// Nominal is the competitive ratio without faults.
	Nominal float64
	// Faulted is the competitive ratio under the fault schedule.
	Faulted float64
	// Penalty is Faulted / Nominal: how much of the policy's
	// competitiveness the faults cost (1.0 = fully graceful).
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
		inst.Parallelism = o.workers()
		rows, err := Degrade(inst, mix, seed)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			if nominal[r.Policy] == nil {
				nominal[r.Policy] = &metrics.Welford{}
				faulted[r.Policy] = &metrics.Welford{}
				order = append(order, r.Policy)
			}
			nominal[r.Policy].Add(r.Nominal)
			faulted[r.Policy].Add(r.Faulted)
		}
	}

	rows := make([]FaultRow, 0, len(order))
	for _, name := range order {
		rows = append(rows, faultRow(name, nominal[name].Summary().Mean, faulted[name].Summary().Mean))
	}
	return rows, nil
}

// Degrade runs inst twice on the same arrival stream — once nominal
// and once with fs injected, under one schedule seeded by seed, into
// every system (faults.Wrapper over Cfg.Ports) — and reports each
// policy's ratio erosion. A zero fs Horizon covers the whole stream.
func Degrade(inst sim.Instance, fs faults.Spec, seed int64) ([]FaultRow, error) {
	base, err := inst.Run()
	if err != nil {
		return nil, err
	}
	if fs.Horizon == 0 {
		fs.Horizon = int64(inst.Provider.Slots())
	}
	inst.Wrap = faults.Wrapper(fs, inst.Cfg.Ports, seed)
	degraded, err := inst.Run()
	if err != nil {
		return nil, err
	}
	if len(degraded) != len(base) {
		return nil, fmt.Errorf("experiments: fault run returned %d results, nominal %d", len(degraded), len(base))
	}
	rows := make([]FaultRow, len(base))
	for i, r := range base {
		rows[i] = faultRow(r.Policy, r.Ratio, degraded[i].Ratio)
	}
	return rows, nil
}

// faultRow builds a row from the two ratios; the penalty is 0 when the
// nominal ratio is.
func faultRow(policy string, nominal, faulted float64) FaultRow {
	r := FaultRow{Policy: policy, Nominal: nominal, Faulted: faulted}
	if nominal > 0 {
		r.Penalty = faulted / nominal
	}
	return r
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
