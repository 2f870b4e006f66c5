package experiments

import (
	"fmt"
	"strconv"

	"smbm/internal/core"
	"smbm/internal/sim"
	"smbm/internal/spec"
	"smbm/internal/tablefmt"
)

// LatencyRow reports one policy's delay profile at one buffer size.
type LatencyRow struct {
	// B is the buffer size.
	B int
	// Policy is the policy name.
	Policy string
	// Ratio is the empirical competitive ratio (throughput objective).
	Ratio float64
	// MeanLatency and HeavyMeanLatency are averages over all / the most
	// expensive port's transmitted packets, in slots.
	MeanLatency, HeavyMeanLatency float64
}

// Latency quantifies the paper's closing observation: "as buffers get
// smaller, the effect of processing delay becomes much more pronounced".
// It sweeps B on the processing model and reports, per policy, both the
// throughput ratio and the delay profile — showing the
// throughput/latency trade-off the admission policies navigate.
func Latency(o Options) ([]LatencyRow, error) {
	o = o.withDefaults()
	const k = 8
	e := o.scaled(spec.Experiment{Name: "latency", Model: "processing", Sweep: "B", Values: []int{32, 64, 128, 256, 512},
		K: k, C: 1, Policies: []string{"LWD", "LQD", "Greedy"}, Traffic: spec.Traffic{Load: loadProcessing}})
	var rows []LatencyRow
	for _, b := range e.Values {
		inst, err := e.Instance(b, o.BaseSeed)
		if err != nil {
			return nil, err
		}
		optSys, err := sim.NewOptProxy(inst.Cfg)
		if err != nil {
			return nil, err
		}
		optStats, err := sim.RunTrace(optSys, inst.Provider, inst.FlushEvery)
		if err != nil {
			return nil, err
		}
		for _, p := range inst.Policies {
			sw, err := core.New(inst.Cfg, p)
			if err != nil {
				return nil, err
			}
			stats, err := sim.RunTrace(sw, inst.Provider, inst.FlushEvery)
			if err != nil {
				return nil, err
			}
			ratio := 0.0
			if stats.Transmitted > 0 {
				ratio = float64(optStats.Transmitted) / float64(stats.Transmitted)
			}
			rows = append(rows, LatencyRow{
				B:                b,
				Policy:           p.Name(),
				Ratio:            ratio,
				MeanLatency:      stats.MeanLatency(),
				HeavyMeanLatency: sw.PortCounters()[k-1].MeanLatency(),
			})
		}
	}
	return rows, nil
}

// LatencyTable renders the latency sweep.
func LatencyTable(rows []LatencyRow) string {
	headers := []string{"B", "policy", "ratio", "mean lat", "heavy mean lat"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(r.B),
			r.Policy,
			fmt.Sprintf("%.3f", r.Ratio),
			fmt.Sprintf("%.1f", r.MeanLatency),
			fmt.Sprintf("%.1f", r.HeavyMeanLatency),
		})
	}
	return tablefmt.Render(headers, cells)
}
