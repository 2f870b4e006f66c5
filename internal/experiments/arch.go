package experiments

import (
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

	singleCfg := func(order singleq.Order, pushOut bool) singleq.Config {
		return singleq.Config{Buffer: b, MaxWork: k, Cores: k, Order: order, PushOut: pushOut}
	}

	type entry struct {
		sys   sim.System
		heavy func() (mean float64, maxLat int64, delivery float64)
		rates func() []float64
	}
	var entries []entry

	addSingle := func(order singleq.Order, pushOut bool) error {
		s, err := singleq.New(singleCfg(order, pushOut))
		if err != nil {
			return err
		}
		entries = append(entries, entry{
			sys: s,
			heavy: func() (float64, int64, float64) {
				c := s.ClassCounters()[k]
				delivery := 1.0
				if c.Arrived > 0 {
					delivery = float64(c.Transmitted) / float64(c.Arrived)
				}
				return c.MeanLatency(), c.MaxLatency, delivery
			},
			rates: func() []float64 {
				cs := s.ClassCounters()
				rates := make([]float64, 0, k)
				for w := 1; w <= k; w++ {
					r := 1.0
					if cs[w].Arrived > 0 {
						r = float64(cs[w].Transmitted) / float64(cs[w].Arrived)
					}
					rates = append(rates, r)
				}
				return rates
			},
		})
		return nil
	}
	addShared := func(p core.Policy) error {
		sw, err := core.New(inst.Cfg, p)
		if err != nil {
			return err
		}
		entries = append(entries, entry{
			sys: sw,
			heavy: func() (float64, int64, float64) {
				c := sw.PortCounters()[k-1]
				return c.MeanLatency(), c.MaxLatency, c.DeliveryRate()
			},
			rates: func() []float64 {
				rates := make([]float64, 0, k)
				for _, c := range sw.PortCounters() {
					rates = append(rates, c.DeliveryRate())
				}
				return rates
			},
		})
		return nil
	}

	if err := addSingle(singleq.OrderPQ, true); err != nil {
		return nil, err
	}
	if err := addSingle(singleq.OrderFIFO, true); err != nil {
		return nil, err
	}
	if err := addSingle(singleq.OrderFIFO, false); err != nil {
		return nil, err
	}
	for _, p := range inst.Policies {
		if err := addShared(p); err != nil {
			return nil, err
		}
	}

	rows := make([]ArchRow, 0, len(entries))
	var best int64
	for _, e := range entries {
		stats, err := sim.RunTrace(e.sys, inst.Provider, inst.FlushEvery)
		if err != nil {
			return nil, err
		}
		hm, hx, hd := e.heavy()
		name := e.sys.Name()
		if _, ok := e.sys.(*core.Switch); ok {
			name = "SM-" + name // shared-memory systems named by policy
		}
		rows = append(rows, ArchRow{
			System:        name,
			Transmitted:   stats.Transmitted,
			MeanLatency:   stats.MeanLatency(),
			HeavyMean:     hm,
			HeavyMax:      hx,
			HeavyDelivery: hd,
			Fairness:      metrics.JainIndex(e.rates()),
		})
		if stats.Transmitted > best {
			best = stats.Transmitted
		}
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
