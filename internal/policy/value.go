package policy

import (
	"smbm/internal/core"
	"smbm/internal/hmath"
	"smbm/internal/pkt"
)

// This file holds the value-model policies of Section IV of the paper
// (heterogeneous packet values, unit work, priority-queue output
// queues; objective: total transmitted value). Length-based policies
// that carry over unchanged from the processing model (Greedy, NEST,
// NHDT) are shared with the processing roster above.

// NHSTV is the value-model adaptation of the harmonic static thresholds
// for the value≡port special case: high values get the large thresholds,
// so a queue whose packets carry value v admits while
// |Q_i| < B/((k−v+1)·H_k). (The paper: "we reverse the thresholds to
// B/((k−i+1)H_k) for queue with value i".) The threshold is keyed on the
// arriving packet's value, which coincides with the port label in the
// intended special case.
type NHSTV struct{}

// Name implements core.Policy.
func (NHSTV) Name() string { return "NHSTV" }

// nhstvRule is NHSTV's admission predicate with H_k, the label ceiling
// and the buffer bound hoisted.
type nhstvRule struct {
	lens []int
	k    int
	hk   float64
	buf  float64
}

// newNHSTVRule hoists NHSTV's per-burst constants once.
//
//smb:hotpath
func newNHSTVRule(f core.FastView) nhstvRule {
	k := f.MaxLabel()
	return nhstvRule{f.QueueLens(), k, hmath.Harmonic(k), float64(f.Buffer())}
}

// admit implements thresholdRule:
// |Q_i| < B/((k−v+1)·H_k)  ⇔  |Q_i|·(k−v+1)·H_k < B. O(1) per arrival
// already: one length read plus a table-backed H_k lookup.
//
//smb:hotpath
func (r nhstvRule) admit(p pkt.Packet) bool {
	return float64(r.lens[p.Port])*float64(r.k-p.Value+1)*r.hk < r.buf
}

// Admit implements core.Policy.
//
//smb:hotpath
func (NHSTV) Admit(v core.View, p pkt.Packet) core.Decision {
	if v.Free() == 0 {
		return core.Drop()
	}
	k := v.MaxLabel()
	lhs := float64(v.QueueLen(p.Port)) * float64(k-p.Value+1) * hmath.Harmonic(k)
	if lhs < float64(v.Buffer()) {
		return core.Accept()
	}
	return core.Drop()
}

// VLQD is Longest-Queue-Drop in the value model: on congestion it drops
// the lowest-value packet of the longest queue (the arriving packet
// counted virtually). When the arriving packet's own queue is the
// longest, the arriving packet competes with the queue's minimum: it is
// admitted in place of a strictly cheaper packet, otherwise dropped —
// either way the lowest value of the longest queue is what goes.
// Theorem 9: ≥ ∛k − o(∛k) competitive. Its reported Name stays "LQD",
// the paper's label; the Go identifier distinguishes it from the
// processing model's tail-dropping LQD.
type VLQD struct{}

// Name implements core.Policy.
func (VLQD) Name() string { return "LQD" }

// vlqdRule is VLQD's victim ordering over the hoisted length and
// minimum-value lanes.
type vlqdRule struct {
	lens, mins []int
}

// newVLQDRule hoists the live slices once.
//
//smb:hotpath
func newVLQDRule(f core.FastView) vlqdRule {
	return vlqdRule{f.QueueLens(), f.QueueMinValues()}
}

// summarize implements victimRule: the longest and runner-up queues
// by real length, ties to the cheaper minimum, then the lower index
// (a later queue must strictly outrank the earlier one to displace it).
//
//smb:hotpath
func (r vlqdRule) summarize(summary) summary {
	mins := r.mins[:len(r.lens)]
	top, next := -1, -1
	tl, tm, nl, nm := -1, 0, -1, 0 // length −1: every queue outranks it
	for j, l := range r.lens {
		m := mins[j]
		switch {
		case l > tl || l == tl && m < tm:
			top, next, nl, nm = j, top, tl, tm
			tl, tm = l, m
		case l > nl || l == nl && m < nm:
			next, nl, nm = j, l, m
		}
	}
	return summary{top: top, next: next}
}

// victim implements victimRule: the best other queue o stays the
// longest over p's virtually grown queue i if it is longer, as long
// with a cheaper minimum, or fully tied at a lower index.
//
//smb:hotpath
func (r vlqdRule) victim(s summary, p pkt.Packet) int {
	i := p.Port
	o := s.top
	if o == i {
		o = s.next
	}
	if o >= 0 {
		lo, li := r.lens[o], r.lens[i]+1
		if lo > li || lo == li && (r.mins[o] < r.mins[i] || r.mins[o] == r.mins[i] && o < i) {
			return o
		}
	}
	if r.lens[i] > 0 && r.mins[i] < p.Value {
		return i
	}
	return -1
}

// Admit implements core.Policy.
//
//smb:hotpath
func (VLQD) Admit(v core.View, p pkt.Packet) core.Decision {
	if v.Free() > 0 {
		return core.Accept()
	}
	i := p.Port
	longest, longestLen := -1, -1
	for j := 0; j < v.Ports(); j++ {
		l := v.QueueLen(j)
		if j == i {
			l++ // virtually add p
		}
		switch {
		case l > longestLen:
			longest, longestLen = j, l
		case l == longestLen && v.QueueMinValue(j) < v.QueueMinValue(longest):
			// Ties: prefer evicting from the queue holding the cheaper
			// packet.
			longest = j
		}
	}
	if longest != i {
		return core.PushOut(longest)
	}
	if v.QueueLen(i) > 0 && v.QueueMinValue(i) < p.Value {
		return core.PushOut(i)
	}
	return core.Drop()
}

// MVD is Minimal-Value-Drop: on congestion, if the arriving packet beats
// the cheapest buffered packet, that cheapest packet (from the longest
// such queue on ties) is pushed out. Greedily maximizes admitted value;
// Theorem 10 shows it is ≥ (m−1)/2-competitive for m = min{k,B} because
// it starves all but the richest ports.
type MVD struct{}

// Name implements core.Policy.
func (MVD) Name() string { return "MVD" }

// MVD1 is the simulation-section variant of MVD that never pushes out the
// last packet of a queue, so an active port is never silenced by a single
// expensive arrival elsewhere.
type MVD1 struct{}

// Name implements core.Policy.
func (MVD1) Name() string { return "MVD1" }

// mvdRule is MVD's victim ordering with a minimum victim-queue length
// (1 for MVD, 2 for MVD1).
type mvdRule struct {
	lens, mins []int
	minLen     int
}

// newMVDRule hoists the live slices once.
//
//smb:hotpath
func newMVDRule(f core.FastView, minLen int) mvdRule {
	return mvdRule{f.QueueLens(), f.QueueMinValues(), minLen}
}

// summarize implements victimRule: MVD's victim does not depend on
// the arrival's port, so the summary is the victim itself — the
// cheapest minimum over queues of at least minLen packets, ties to the
// longest queue, then the lower index — with that minimum.
//
//smb:hotpath
func (r mvdRule) summarize(summary) summary {
	mins := r.mins[:len(r.lens)]
	victim, minVal, victimLen := -1, int(^uint(0)>>1), 0
	for j, l := range r.lens {
		if l < r.minLen {
			continue
		}
		// Ties: the longest queue among those holding the minimum.
		if mv := mins[j]; mv < minVal || mv == minVal && l > victimLen {
			victim, minVal, victimLen = j, mv, l
		}
	}
	if victim < 0 {
		return summary{top: -1, next: -1}
	}
	return summary{top: victim, next: -1, min: minVal}
}

// victim implements victimRule.
//
//smb:hotpath
func (mvdRule) victim(s summary, p pkt.Packet) int {
	if s.top >= 0 && s.min < p.Value {
		return s.top
	}
	return -1
}

// Admit implements core.Policy.
//
//smb:hotpath
func (MVD) Admit(v core.View, p pkt.Packet) core.Decision {
	return mvdAdmit(v, p, 1)
}

// Admit implements core.Policy.
//
//smb:hotpath
func (MVD1) Admit(v core.View, p pkt.Packet) core.Decision {
	return mvdAdmit(v, p, 2)
}

// mvdAdmit implements MVD with a minimum victim-queue length (1 for MVD,
// 2 for MVD1).
//
//smb:hotpath
func mvdAdmit(v core.View, p pkt.Packet, minLen int) core.Decision {
	if v.Free() > 0 {
		return core.Accept()
	}
	victim, minVal := -1, 0
	for j := 0; j < v.Ports(); j++ {
		if v.QueueLen(j) < minLen {
			continue
		}
		mv := v.QueueMinValue(j)
		switch {
		case victim == -1 || mv < minVal:
			victim, minVal = j, mv
		case mv == minVal && v.QueueLen(j) > v.QueueLen(victim):
			// Ties: the longest queue among those holding the minimum.
			victim = j
		}
	}
	if victim >= 0 && minVal < p.Value {
		return core.PushOut(victim)
	}
	return core.Drop()
}

// MRD is the paper's Maximal-Ratio-Drop, the conjectured
// constant-competitive policy: on congestion, push out the cheapest
// packet of the queue maximizing |Q_j|/a_j (a_j the average value in
// Q_j, the arriving packet counted virtually in its own queue), provided
// the arriving packet is worth at least the cheapest value anywhere in
// the buffer. Ties on the ratio go to the queue holding the smaller
// minimum value.
//
// The paper's case split leaves "minimal admitted value == m"
// unspecified; equality must push for the stated property "MRD emulates
// LQD in case all packets have unit values" to hold (under unit values
// the minimum always equals the arrival), so that is the behaviour here
// — except that a packet arriving for the max-ratio queue itself only
// displaces a strictly cheaper minimum, mirroring LQD's i = j* drop.
// The LQD equivalence transfers the √2 lower bound; Theorem 11 gives
// ≥ 4/3 in the value≡port case.
type MRD struct{}

// Name implements core.Policy.
func (MRD) Name() string { return "MRD" }

// mrdRule is MRD's victim ordering over the hoisted length, minimum
// and sum lanes.
type mrdRule struct {
	lens, mins []int
	sums       []int64
}

// newMRDRule hoists the live slices once.
//
//smb:hotpath
func newMRDRule(f core.FastView) mrdRule {
	return mrdRule{f.QueueLens(), f.QueueMinValues(), f.QueueSums()}
}

// summarize implements victimRule: the max-ratio and runner-up
// non-empty queues by real |Q_j|/a_j = |Q_j|²/sum_j, ties to the
// smaller minimum, then the lower index, plus the buffer's minimum
// value. Ratios compare by cross-multiplying in int64 (|Q| ≤ B, sums
// ≤ B·k keep this far from overflow).
//
//smb:hotpath
func (r mrdRule) summarize(summary) summary {
	mins, sums := r.mins[:len(r.lens)], r.sums[:len(r.lens)]
	s := summary{top: -1, next: -1}
	// Running (|Q|², sum, min) keys of top and next; the ratio −1/1
	// ranks below every non-empty queue.
	tn, td, tm := int64(-1), int64(1), 0
	nn, nd, nm := int64(-1), int64(1), 0
	for j, l := range r.lens {
		if l == 0 {
			continue
		}
		m := mins[j]
		if s.min == 0 || m < s.min {
			s.min = m
		}
		num, den := int64(l)*int64(l), sums[j]
		if a, b := num*td, tn*den; a > b || a == b && m < tm {
			s.top, s.next = j, s.top
			tn, td, tm, nn, nd, nm = num, den, m, tn, td, tm
		} else if a, b := num*nd, nn*den; a > b || a == b && m < nm {
			s.next = j
			nn, nd, nm = num, den, m
		}
	}
	return s
}

// victim implements victimRule: p's queue i, grown virtually by p,
// against the best other queue o on ratio, then minimum (an empty i
// counts as unbeatably expensive), then index.
//
//smb:hotpath
func (r mrdRule) victim(s summary, p pkt.Packet) int {
	i := p.Port
	victim := i
	o := s.top
	if o == i {
		o = s.next
	}
	if o >= 0 {
		li, lo := int64(r.lens[i]+1), int64(r.lens[o])
		a, b := lo*lo*(r.sums[i]+int64(p.Value)), li*li*r.sums[o]
		if mi := minOrInfSlices(r.lens, r.mins, i); a > b || a == b && (r.mins[o] < mi || r.mins[o] == mi && o < i) {
			victim = o
		}
	}
	return guardedVictim(r.lens, r.mins, s.min, victim, p)
}

// Admit implements core.Policy.
//
//smb:hotpath
func (MRD) Admit(v core.View, p pkt.Packet) core.Decision {
	if v.Free() > 0 {
		return core.Accept()
	}
	victim := -1
	var bestNum, bestDen int64
	globalMin := 0
	for j := 0; j < v.Ports(); j++ {
		l, sum := int64(v.QueueLen(j)), v.QueueValueSum(j)
		if j == p.Port {
			l++ // virtually add p
			sum += int64(p.Value)
		}
		if l == 0 {
			continue
		}
		mv := v.QueueMinValue(j) // 0 on an empty queue: only possible for j == p.Port
		if mv > 0 && (globalMin == 0 || mv < globalMin) {
			globalMin = mv
		}
		num, den := l*l, sum
		switch {
		case victim == -1 || num*bestDen > bestNum*den:
			victim, bestNum, bestDen = j, num, den
		case num*bestDen == bestNum*den && minOrInf(v, j) < minOrInf(v, victim):
			victim, bestNum, bestDen = j, num, den
		}
	}
	return mrdDecide(v, p, victim, globalMin)
}

// mrdDecide turns the max-rank scan result of MRD or TVD into a
// decision — the plain-View reference twin of guardedVictim.
//
//smb:hotpath
func mrdDecide(v core.View, p pkt.Packet, victim, globalMin int) core.Decision {
	if victim != p.Port {
		if globalMin <= p.Value {
			return core.PushOut(victim)
		}
		return core.Drop()
	}
	if v.QueueLen(p.Port) > 0 && v.QueueMinValue(p.Port) < p.Value {
		return core.PushOut(p.Port)
	}
	return core.Drop()
}

// minOrInf returns the queue's minimum value, treating an empty queue as
// unbeatably expensive for tie-breaking.
//
//smb:hotpath
func minOrInf(v core.View, j int) int {
	if v.QueueLen(j) == 0 {
		return int(^uint(0) >> 1)
	}
	return v.QueueMinValue(j)
}

// minOrInfSlices is minOrInf over the kernels' hoisted FastView slices.
//
//smb:hotpath
func minOrInfSlices(lens, mins []int, j int) int {
	if lens[j] == 0 {
		return int(^uint(0) >> 1)
	}
	return mins[j]
}

// ForValueUniform returns the roster of Fig. 5 panels 4–6: the value
// model with both output port and value chosen uniformly at random.
func ForValueUniform() []core.Policy {
	return []core.Policy{
		Greedy{},
		NEST{},
		NHDT{},
		VLQD{},
		MVD{},
		MVD1{},
		MRD{},
	}
}

// ForValueByPort returns the roster of Fig. 5 panels 7–9: the special
// case where a packet's value is uniquely determined by its output port,
// which adds the reversed-threshold NHSTV.
func ForValueByPort() []core.Policy {
	return []core.Policy{
		Greedy{},
		NHSTV{},
		NEST{},
		NHDT{},
		VLQD{},
		MVD{},
		MVD1{},
		MRD{},
	}
}

// ValueByName returns the value-model policy with the given Name, or nil.
func ValueByName(name string) core.Policy {
	for _, p := range ForValueByPort() {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

var (
	_ core.Policy = NHSTV{}
	_ core.Policy = VLQD{}
	_ core.Policy = MVD{}
	_ core.Policy = MVD1{}
	_ core.Policy = MRD{}
)
