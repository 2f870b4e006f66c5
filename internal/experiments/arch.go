package experiments

import (
	"context"
	"fmt"
	"strconv"

	"smbm/internal/core"
	"smbm/internal/metrics"
	"smbm/internal/sim"
	"smbm/internal/singleq"
	"smbm/internal/spec"
	"smbm/internal/tablefmt"
)

// ArchRow compares one buffer architecture on the shared traffic of the
// architecture experiment.
type ArchRow struct {
	// System names the architecture/policy combination.
	System string
	// Transmitted is total packets delivered.
	Transmitted int64
	// Ratio is best-transmitted / transmitted (1.0 = winner).
	Ratio float64
	// MeanLatency is the average packet residence in slots.
	MeanLatency float64
	// HeavyMean and HeavyMax are the mean and maximum latency of the
	// most expensive traffic class — the starvation evidence.
	HeavyMean float64
	// HeavyMax is the maximum heavy-class latency (see HeavyMean).
	HeavyMax int64
	// HeavyDelivery is transmitted/arrived for the most expensive
	// class.
	HeavyDelivery float64
	// Fairness is Jain's index over per-class delivery rates: 1 means
	// every traffic class gets the same share of its offered load.
	Fairness float64
}

// Architectures reproduces the paper's introductory comparison (Fig. 1):
// a single shared queue whose cores process any traffic type, against
// the shared-memory switch with one core per type, on identical MMPP
// traffic with the same total buffer and core count. The paper's
// narrative: single-queue PQ maximizes throughput but starves expensive
// classes and needs priority-order hardware; the shared-memory switch
// under LWD gets within a few percent with plain FIFO queues and no
// starvation.
func Architectures(o Options) ([]ArchRow, error) {
	o = o.withDefaults()
	const (
		k = 8
		b = 128
	)
	inst, err := o.scaled(spec.Experiment{Name: "arch", Model: "processing", Sweep: "B", Values: []int{b},
		K: k, C: 1, Policies: []string{"LWD", "LQD", "Greedy"}, Traffic: spec.Traffic{Load: 2.0}}).Instance(b, o.BaseSeed)
	if err != nil {
		return nil, err
	}

	var systems []sim.System
	for _, q := range []struct {
		order   singleq.Order
		pushOut bool
	}{{singleq.OrderPQ, true}, {singleq.OrderFIFO, true}, {singleq.OrderFIFO, false}} {
		s, err := singleq.New(singleq.Config{Buffer: b, MaxWork: k, Cores: k, Order: q.order, PushOut: q.pushOut})
		if err != nil {
			return nil, err
		}
		systems = append(systems, s)
	}
	for _, p := range inst.Policies {
		sw, err := core.New(inst.Cfg, p)
		if err != nil {
			return nil, err
		}
		systems = append(systems, sw)
	}
	stats, err := sim.Lockstep(context.TODO(), inst.Provider, sim.RunOptions{FlushEvery: inst.FlushEvery}, o.workers(), systems...)
	if err != nil {
		return nil, err
	}

	rows := make([]ArchRow, len(systems))
	var best int64
	for i, sys := range systems {
		// classes holds the per-work-class counters, lightest first.
		name, classes := sys.Name(), []core.PortCounters(nil)
		switch s := sys.(type) {
		case *singleq.Switch:
			classes = s.PerClass()
		case *core.Switch:
			name, classes = "SM-"+name, s.PortCounters() // shared-memory systems named by policy
		}
		rates := make([]float64, len(classes))
		for j, c := range classes {
			rates[j] = c.DeliveryRate()
		}
		heavy := classes[k-1]
		rows[i] = ArchRow{
			System:        name,
			Transmitted:   stats[i].Transmitted,
			MeanLatency:   stats[i].MeanLatency(),
			HeavyMean:     heavy.MeanLatency(),
			HeavyMax:      heavy.MaxLatency,
			HeavyDelivery: heavy.DeliveryRate(),
			Fairness:      metrics.JainIndex(rates),
		}
		best = max(best, stats[i].Transmitted)
	}
	for i := range rows {
		if rows[i].Transmitted > 0 {
			rows[i].Ratio = float64(best) / float64(rows[i].Transmitted)
		}
	}
	return rows, nil
}

// ArchTable renders the architecture comparison.
func ArchTable(rows []ArchRow) string {
	headers := []string{"system", "transmitted", "ratio", "mean lat", "heavy mean lat", "heavy max lat", "heavy delivery", "fairness"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			r.System,
			strconv.FormatInt(r.Transmitted, 10),
			fmt.Sprintf("%.3f", r.Ratio),
			fmt.Sprintf("%.1f", r.MeanLatency),
			fmt.Sprintf("%.1f", r.HeavyMean),
			strconv.FormatInt(r.HeavyMax, 10),
			fmt.Sprintf("%.2f", r.HeavyDelivery),
			fmt.Sprintf("%.3f", r.Fairness),
		})
	}
	return tablefmt.Render(headers, cells)
}
