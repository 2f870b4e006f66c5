package policy

import (
	"smbm/internal/core"
	"smbm/internal/pkt"
)

// LQD is the classical Longest-Queue-Drop policy: on congestion, push out
// the tail packet of the longest queue (with the arriving packet counted
// virtually in its destination queue). Ties go to the queue with the
// largest required processing, i.e. the largest port index (ports are
// sorted by work). 2-competitive under uniform processing [Aiello et
// al.]; Theorem 4 shows it is ≥ √k − o(√k) under heterogeneous
// processing.
type LQD struct{}

// Name implements core.Policy.
func (LQD) Name() string { return "LQD" }

// maxKeyRule is the victim ordering LQD and LWD share: push out the
// queue with the largest key after the arrival's virtual add, ties to
// the largest index. The key is the queue length for LQD (virtual add
// 1) and the total residual work for LWD (virtual add w_i). The add
// raises only the arrival's own key, so the real top (ti, tk) decides
// with one comparison: a strictly larger virtual key wins outright, an
// equal one only on the index tie-break, and otherwise the real top
// stands. When ti is the arrival's own queue its virtual key beats tk,
// so the arrival drops and no runner-up is needed. This reproduces
// LQD's and LWD's reference scans exactly.
type maxKeyRule struct {
	keys []int // live per-queue key lane
	adds []int // per-port virtual add; nil adds 1
}

// summarize implements victimRule: the largest key, ties to the
// largest index. The scan walks backward with a strict comparison —
// the same result as a forward walk that takes ties, but on the
// tie-heavy keys the equalizing policies produce its replacement
// branch almost never fires.
//
//smb:hotpath
func (r maxKeyRule) summarize(summary) summary {
	keys := r.keys
	top := len(keys) - 1
	tk := keys[top]
	for j := top - 1; j >= 0; j-- {
		if k := keys[j]; k > tk {
			top, tk = j, k
		}
	}
	return summary{top: top, next: -1}
}

// victim implements victimRule.
//
//smb:hotpath
func (r maxKeyRule) victim(s summary, p pkt.Packet) int {
	i, ti := p.Port, s.top
	vi := r.keys[i] + 1
	if r.adds != nil {
		vi = r.keys[i] + r.adds[i]
	}
	if tk := r.keys[ti]; vi > tk || (vi == tk && i > ti) {
		return -1
	}
	return ti
}

// Admit implements core.Policy.
//
//smb:hotpath
func (LQD) Admit(v core.View, p pkt.Packet) core.Decision {
	if v.Free() > 0 {
		return core.Accept()
	}
	// Reference scan: the executable definition of the ordering, which
	// the differential suites replay against maxKeyRule's kernel.
	i := p.Port
	longest, longestLen := -1, -1
	for j := 0; j < v.Ports(); j++ {
		l := v.QueueLen(j)
		if j == i {
			l++ // virtually add p
		}
		if l >= longestLen { // >= : ties resolve to the largest index
			longest, longestLen = j, l
		}
	}
	if longest != i {
		return core.PushOut(longest)
	}
	return core.Drop()
}

// BPD is the Biggest-Packet-Drop policy: on congestion, push out the tail
// of the non-empty queue with the largest processing requirement, but
// only when the arriving packet's port index does not exceed the victim's
// (i.e. its work requirement is no larger). Theorem 5: ≥ H_k ≥ ln k + γ
// competitive — aggressively minimizing buffered work starves ports.
type BPD struct{}

// Name implements core.Policy.
func (BPD) Name() string { return "BPD" }

// Admit implements core.Policy.
//
//smb:hotpath
func (BPD) Admit(v core.View, p pkt.Packet) core.Decision {
	if v.Free() > 0 {
		return core.Accept()
	}
	j := biggestNonEmpty(v, 1)
	if j >= 0 && p.Port <= j {
		return core.PushOut(j)
	}
	return core.Drop()
}

// BPD1 is the simulation-section variant of BPD that never pushes out the
// last packet of a queue, avoiding the artificial port-idling that makes
// plain BPD a poor heuristic: the victim is the largest-work queue
// holding at least two packets.
type BPD1 struct{}

// Name implements core.Policy.
func (BPD1) Name() string { return "BPD1" }

// Admit implements core.Policy.
//
//smb:hotpath
func (BPD1) Admit(v core.View, p pkt.Packet) core.Decision {
	if v.Free() > 0 {
		return core.Accept()
	}
	j := biggestNonEmpty(v, 2)
	if j >= 0 && p.Port <= j {
		return core.PushOut(j)
	}
	return core.Drop()
}

// biggestNonEmpty returns the largest port index whose queue holds at
// least minLen packets, or -1. Ports are sorted by required work, so the
// largest index is the biggest processing requirement; among equal works
// the larger index is an arbitrary but fixed tie-break.
//
//smb:hotpath
func biggestNonEmpty(v core.View, minLen int) int {
	for j := v.Ports() - 1; j >= 0; j-- {
		if v.QueueLen(j) >= minLen {
			return j
		}
	}
	return -1
}

// LWD is the paper's main contribution, Longest-Work-Drop: on congestion,
// push out the tail of the queue with the largest total residual work
// (the arriving packet's work counted virtually in its destination
// queue). Ties go to the largest port index, mirroring LQD's
// largest-work tie-break. Theorem 7: at most 2-competitive; Theorems 6
// and the LQD equivalence give lower bounds of 4/3 − 6/B (contiguous
// case) and √2 (uniform works).
type LWD struct{}

// Name implements core.Policy.
func (LWD) Name() string { return "LWD" }

// Admit implements core.Policy.
//
//smb:hotpath
func (LWD) Admit(v core.View, p pkt.Packet) core.Decision {
	if v.Free() > 0 {
		return core.Accept()
	}
	i := p.Port
	heaviest, heaviestWork := -1, -1
	for j := 0; j < v.Ports(); j++ {
		w := v.QueueWork(j)
		if j == i {
			w += v.PortWork(i) // virtually add p
		}
		if w >= heaviestWork { // >= : ties resolve to the largest index
			heaviest, heaviestWork = j, w
		}
	}
	if heaviest != i {
		return core.PushOut(heaviest)
	}
	return core.Drop()
}

var (
	_ core.Policy = LQD{}
	_ core.Policy = BPD{}
	_ core.Policy = BPD1{}
	_ core.Policy = LWD{}
)
