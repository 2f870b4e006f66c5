package policy

import (
	"smbm/internal/core"
	"smbm/internal/pkt"
)

// This file holds the combined work×value model's roster — the model
// the paper never studied, opened by the unified engine: packets carry
// both a per-port required work and an intrinsic value, queues are
// FIFO with tail push-out like the processing model, and the objective
// is the total (equivalently per-cycle, see core.Stats.ValuePerCycle)
// value transmitted.
//
// The length-based policies (Greedy, NEST, NHDT) and the work-ranked
// push-out family (LQD, LWD) carry over verbatim; MRD carries over
// because its ratio reads only lengths and value sums. RVD below is
// the genuinely combined hybrid: it ranks drop candidates by buffered
// work per buffered value, the cost×benefit ratio neither parent model
// can express.

// RVD (Ratio-Value-Drop) is the combined-model hybrid of LWD and MRD:
// on congestion, push out the tail of the queue maximizing
// W_j / V_j — total residual work per total buffered value, the
// arriving packet counted virtually in its own queue — i.e. evict
// where the buffer spends the most cycles per unit of value it will
// ever deliver. Ties on the ratio go to the queue holding the smaller
// minimum value, mirroring MRD. The MRD displacement guards carry
// over: a cross-queue push-out requires the arrival to be worth at
// least the cheapest buffered value anywhere, and a packet arriving
// for the max-ratio queue itself only displaces a strictly cheaper
// minimum.
//
// Under unit values the ratio degenerates to W_j/|Q_j|, evicting the
// queue with the largest average per-packet cost (a BPD-flavored
// ordering on buffered work); under unit works it degenerates to
// 1/avg value, evicting the value-poorest queue — the "normalized
// value" direction the paper conjectures constant-competitive for
// MRD. Only the combined model exercises both axes at once.
type RVD struct{}

// Name implements core.Policy.
func (RVD) Name() string { return "RVD" }

// rvdRule is RVD's victim ordering over the hoisted work, length,
// minimum and sum lanes.
type rvdRule struct {
	lens, qworks, works, mins []int
	sums                      []int64
}

// newRVDRule hoists the live slices once.
//
//smb:hotpath
func newRVDRule(f core.FastView) rvdRule {
	return rvdRule{f.QueueLens(), f.QueueTotalWorks(), f.PortWorks(), f.QueueMinValues(), f.QueueSums()}
}

// summarize implements victimRule: the max-ratio and runner-up
// non-empty queues by real W_j/V_j, ties to the smaller minimum, then
// the lower index, plus the buffer's minimum value. Ratios compare by
// cross-multiplying in int64 (W ≤ B·k and V ≤ B·k keep the products
// far from overflow).
//
//smb:hotpath
func (r rvdRule) summarize() summary {
	qworks, mins := r.qworks[:len(r.sums)], r.mins[:len(r.sums)]
	s := summary{top: -1, next: -1}
	// Running (W, V, min) keys of top and next; the ratio −1/1 ranks
	// below every non-empty queue.
	tw, tv, tm := int64(-1), int64(1), 0
	nw, nv, nm := int64(-1), int64(1), 0
	for j, v := range r.sums {
		if v == 0 {
			continue // empty
		}
		m := mins[j]
		if s.min == 0 || m < s.min {
			s.min = m
		}
		w := int64(qworks[j])
		if a, b := w*tv, tw*v; a > b || a == b && m < tm {
			s.top, s.next = j, s.top
			tw, tv, tm, nw, nv, nm = w, v, m, tw, tv, tm
		} else if a, b := w*nv, nw*v; a > b || a == b && m < nm {
			s.next = j
			nw, nv, nm = w, v, m
		}
	}
	return s
}

// victim implements victimRule: p's queue i, grown virtually by p,
// against the best other queue o on W/V, then minimum (an empty i
// counts as unbeatably expensive), then index.
//
//smb:hotpath
func (r rvdRule) victim(s summary, p pkt.Packet) int {
	i := p.Port
	victim := i
	o := s.top
	if o == i {
		o = s.next
	}
	if o >= 0 {
		wi, vi := int64(r.qworks[i]+r.works[i]), r.sums[i]+int64(p.Value)
		a, b := int64(r.qworks[o])*vi, wi*r.sums[o]
		if mi := minOrInfSlices(r.lens, r.mins, i); a > b || a == b && (r.mins[o] < mi || r.mins[o] == mi && o < i) {
			victim = o
		}
	}
	return guardedVictim(r.lens, r.mins, s.min, victim, p)
}

// Admit implements core.Policy.
//
//smb:hotpath
func (RVD) Admit(v core.View, p pkt.Packet) core.Decision {
	if v.Free() > 0 {
		return core.Accept()
	}
	victim := -1
	var bestW, bestV int64
	globalMin := 0
	for j := 0; j < v.Ports(); j++ {
		w, sum := int64(v.QueueWork(j)), v.QueueValueSum(j)
		if j == p.Port {
			w += int64(v.PortWork(j)) // virtually add p
			sum += int64(p.Value)
		}
		if sum == 0 {
			continue // empty even with the virtual add
		}
		mv := v.QueueMinValue(j) // 0 on an empty queue: only possible for j == p.Port
		if mv > 0 && (globalMin == 0 || mv < globalMin) {
			globalMin = mv
		}
		switch {
		case victim == -1 || w*bestV > bestW*sum:
			victim, bestW, bestV = j, w, sum
		case w*bestV == bestW*sum && minOrInf(v, j) < minOrInf(v, victim):
			victim, bestW, bestV = j, w, sum
		}
	}
	return mrdDecide(v, p, victim, globalMin)
}

// AdmitBatch implements core.BatchPolicy.
//
//smb:hotpath
func (RVD) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	pushOutBatch(b, ps, newRVDRule(b.View()))
}

// ForCombined returns the combined work×value roster: the carried-over
// length- and work-based disciplines plus the value-aware push-out
// policies that remain meaningful under FIFO tail eviction, and the
// RVD hybrid.
func ForCombined() []core.Policy {
	return []core.Policy{
		Greedy{},
		NEST{},
		NHDT{},
		LQD{},
		LWD{},
		MRD{},
		RVD{},
	}
}

// CombinedByName returns the combined-model policy with the given Name,
// or nil.
func CombinedByName(name string) core.Policy {
	for _, p := range ForCombined() {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

var (
	_ core.Policy      = RVD{}
	_ core.BatchPolicy = RVD{}
)
