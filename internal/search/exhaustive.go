package search

import (
	"fmt"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/traffic"
)

// ExhaustiveSpec bounds a complete enumeration of instances: every trace
// of exactly Slots slots whose per-slot bursts are multisets of at most
// MaxBurst packets drawn from the configuration's packet kinds.
type ExhaustiveSpec struct {
	// Cfg is the (tiny) switch configuration.
	Cfg core.Config
	// Slots and MaxBurst bound the enumerated traces.
	Slots, MaxBurst int
	// Limit aborts enumerations larger than this many traces
	// (default 1e6), guarding against accidental explosions.
	Limit int
}

// kinds enumerates the distinct packet kinds of the configuration: one
// per port in the processing model (the port fixes the work), one per
// (port, value) pair in the value model.
func (s ExhaustiveSpec) kinds() []pkt.Packet {
	var out []pkt.Packet
	if s.Cfg.Model == core.ModelValue {
		for p := 0; p < s.Cfg.Ports; p++ {
			for v := 1; v <= s.Cfg.MaxLabel; v++ {
				out = append(out, pkt.NewValue(p, v))
			}
		}
		return out
	}
	for p := 0; p < s.Cfg.Ports; p++ {
		work := 1
		if s.Cfg.PortWork != nil {
			work = s.Cfg.PortWork[p]
		}
		out = append(out, pkt.NewWork(p, work))
	}
	return out
}

// bursts enumerates every multiset of up to MaxBurst packets over the
// kinds, as sorted slices (order within a burst is fixed kind order,
// which loses no generality for the policies under test up to the
// adversary's choice — the enumeration covers the canonical order).
func (s ExhaustiveSpec) bursts() [][]pkt.Packet {
	kinds := s.kinds()
	var out [][]pkt.Packet
	var rec func(start int, cur []pkt.Packet)
	rec = func(start int, cur []pkt.Packet) {
		out = append(out, append([]pkt.Packet(nil), cur...))
		if len(cur) == s.MaxBurst {
			return
		}
		for i := start; i < len(kinds); i++ {
			rec(i, append(cur, kinds[i]))
		}
	}
	rec(0, nil)
	return out
}

// Exhaustive computes the exact worst-case ratio of the policy over the
// full bounded instance space, against the exact offline optimum. The
// returned Worst carries the witness trace.
func Exhaustive(spec ExhaustiveSpec, p core.Policy) (Worst, error) {
	if err := spec.Cfg.Validate(); err != nil {
		return Worst{}, err
	}
	if p == nil {
		return Worst{}, fmt.Errorf("search: nil policy")
	}
	if spec.Slots < 1 || spec.MaxBurst < 1 {
		return Worst{}, fmt.Errorf("search: need slots >= 1 and max burst >= 1")
	}
	limit := spec.Limit
	if limit == 0 {
		limit = 1_000_000
	}
	bursts := spec.bursts()
	total := 1
	for i := 0; i < spec.Slots; i++ {
		total *= len(bursts)
		if total > limit {
			return Worst{}, fmt.Errorf("search: %d^%d traces exceed the limit %d", len(bursts), spec.Slots, limit)
		}
	}

	runSpec := Spec{Cfg: spec.Cfg, Policy: p, Slots: spec.Slots, MaxBurst: spec.MaxBurst, Trials: 1}
	var worst Worst
	idx := make([]int, spec.Slots)
	tr := make(traffic.Trace, spec.Slots)
	for {
		for s := range idx {
			tr[s] = bursts[idx[s]]
		}
		w, err := score(runSpec, tr)
		if err != nil {
			return Worst{}, err
		}
		worst.Evaluated++
		if w.Ratio > worst.Ratio {
			witness := make(traffic.Trace, len(tr))
			for s := range tr {
				witness[s] = append([]pkt.Packet(nil), tr[s]...)
			}
			worst = Worst{Ratio: w.Ratio, Exact: w.Exact, Alg: w.Alg, Trace: witness, Evaluated: worst.Evaluated}
		}
		// Advance the mixed-radix counter.
		pos := 0
		for pos < spec.Slots {
			idx[pos]++
			if idx[pos] < len(bursts) {
				break
			}
			idx[pos] = 0
			pos++
		}
		if pos == spec.Slots {
			return worst, nil
		}
	}
}
