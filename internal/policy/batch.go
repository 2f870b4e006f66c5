package policy

import (
	"smbm/internal/core"
	"smbm/internal/hmath"
	"smbm/internal/pkt"
)

// This file holds the batch kernels: each policy's core.BatchPolicy
// implementation decides a whole arrival burst with the per-burst
// evaluation its per-packet Admit cannot express — thresholds and
// normalizers hoisted out of the loop, burst suffixes dropped
// wholesale once free space is exhausted (free space never grows
// during an arrival phase), and push-out victim orderings summarized
// once per switch state rather than rescanned per congested arrival.
//
// With the engine unified across models, the kernels are too: every
// AdmitBatch is one call into one of the three generic skeletons in
// kernel.go with the policy's rule struct.
//
// Every kernel must reproduce its Admit decision sequence bit for bit;
// the batch differential and fuzz suites replay both paths on every
// roster policy — processing and value — and require
// identical Stats, PortCounters and obs counters.

// greedyRule is Greedy's predicate: every arrival that finds free
// space is accepted, so a greedy burst splits into an accepted prefix
// of length min(free, len) and a dropped suffix.
type greedyRule struct{}

// admit implements thresholdRule.
//
//smb:hotpath
func (greedyRule) admit(pkt.Packet) bool { return true }

// AdmitBatch implements core.BatchPolicy.
//
//smb:hotpath
func (Greedy) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	thresholdBatch(b, ps, greedyRule{})
}

// nhstRule is NHST's admission predicate with Z, the work table and
// the buffer bound hoisted. Z is precomputed by the engine with the
// same ascending-port summation as NHST's Admit scan, so the
// threshold comparison is bit-identical.
type nhstRule struct {
	lens, works []int
	z, buf      float64
}

// newNHSTRule hoists NHST's per-burst constants once.
//
//smb:hotpath
func newNHSTRule(f core.FastView) nhstRule {
	return nhstRule{f.QueueLens(), f.PortWorks(), f.PortInvWorkSum(), float64(f.Buffer())}
}

// admit implements thresholdRule.
//
//smb:hotpath
func (r nhstRule) admit(p pkt.Packet) bool {
	return float64(r.lens[p.Port])*float64(r.works[p.Port])*r.z < r.buf
}

// AdmitBatch implements core.BatchPolicy. The length slice is live, so
// each accept is observed by the next threshold comparison exactly as
// by consecutive Admit calls.
//
//smb:hotpath
func (NHST) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	thresholdBatch(b, ps, newNHSTRule(b.View()))
}

// nestRule is NEST's complete-partitioning predicate.
type nestRule struct {
	lens   []int
	n, buf int
}

// admit implements thresholdRule: |Q_i| < B/n  ⇔  |Q_i|·n < B.
//
//smb:hotpath
func (r nestRule) admit(p pkt.Packet) bool { return r.lens[p.Port]*r.n < r.buf }

// AdmitBatch implements core.BatchPolicy.
//
//smb:hotpath
func (NEST) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	f := b.View()
	thresholdBatch(b, ps, nestRule{f.QueueLens(), f.Ports(), f.Buffer()})
}

// nhdtRule is NHDT's rank-and-sum predicate with the buffer bound and
// harmonic normalizer hoisted.
type nhdtRule struct {
	lens    []int
	buf, hn float64
}

// admit implements thresholdRule.
//
//smb:hotpath
func (r nhdtRule) admit(p pkt.Packet) bool {
	li := r.lens[p.Port]
	var m, sum int
	for _, l := range r.lens {
		if l >= li {
			m++
			sum += l
		}
	}
	return float64(sum) < r.buf*hmath.Harmonic(m)/r.hn
}

// AdmitBatch implements core.BatchPolicy.
//
//smb:hotpath
func (NHDT) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	f := b.View()
	thresholdBatch(b, ps, nhdtRule{f.QueueLens(), float64(f.Buffer()), hmath.Harmonic(f.Ports())})
}

// nhdtwRule is NHDT's rank-and-sum predicate on the work ranking (see
// NHDTW).
type nhdtwRule struct {
	qworks, lens, works []int
	buf, hn             float64
}

// admit implements thresholdRule.
//
//smb:hotpath
func (r nhdtwRule) admit(p pkt.Packet) bool {
	pw := r.works[p.Port]
	wi := r.qworks[p.Port] + pw // virtual add
	var m, sum int
	for j, w := range r.qworks {
		if j == p.Port {
			w += pw
		}
		if w >= wi {
			m++
			sum += r.lens[j]
		}
	}
	return float64(sum) < r.buf*hmath.Harmonic(m)/r.hn
}

// AdmitBatch implements core.BatchPolicy.
//
//smb:hotpath
func (NHDTW) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	f := b.View()
	thresholdBatch(b, ps, nhdtwRule{f.QueueTotalWorks(), f.QueueLens(), f.PortWorks(), float64(f.Buffer()), hmath.Harmonic(f.Ports())})
}

// staticRule is StaticThreshold's per-port table predicate.
type staticRule struct {
	lens, t []int
}

// admit implements thresholdRule.
//
//smb:hotpath
func (r staticRule) admit(p pkt.Packet) bool {
	return p.Port < len(r.t) && r.lens[p.Port] < r.t[p.Port]
}

// AdmitBatch implements core.BatchPolicy.
//
//smb:hotpath
func (s StaticThreshold) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	thresholdBatch(b, ps, staticRule{b.View().QueueLens(), s.T})
}

// AdmitBatch implements core.BatchPolicy. H_k, the label ceiling and
// the buffer bound are hoisted once per burst.
//
//smb:hotpath
func (NHSTV) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	thresholdBatch(b, ps, newNHSTVRule(b.View()))
}

// AdmitBatch implements core.BatchPolicy: the longest queue, with the
// arrival counted virtually (maxKeyRule on the length lane).
//
//smb:hotpath
func (LQD) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	pushOutBatch(b, ps, maxKeyRule{keys: b.View().QueueLens()})
}

// AdmitBatch implements core.BatchPolicy: LQD's rule on the total-work
// lane, the arrival adding its port's work.
//
//smb:hotpath
func (LWD) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	f := b.View()
	pushOutBatch(b, ps, maxKeyRule{f.QueueTotalWorks(), f.PortWorks()})
}

// AdmitBatch implements core.BatchPolicy.
//
//smb:hotpath
func (VLQD) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	pushOutBatch(b, ps, newVLQDRule(b.View()))
}

// AdmitBatch implements core.BatchPolicy.
//
//smb:hotpath
func (MVD) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	pushOutBatch(b, ps, newMVDRule(b.View(), 1))
}

// AdmitBatch implements core.BatchPolicy.
//
//smb:hotpath
func (MVD1) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	pushOutBatch(b, ps, newMVDRule(b.View(), 2))
}

// AdmitBatch implements core.BatchPolicy.
//
//smb:hotpath
func (MRD) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	pushOutBatch(b, ps, newMRDRule(b.View()))
}

// AdmitBatch implements core.BatchPolicy.
//
//smb:hotpath
func (TVD) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	pushOutBatch(b, ps, newTVDRule(b.View()))
}

// bpdRule is BPD's victim ordering, shared with BPD1: the victim is the
// largest-index queue holding at least minLen packets (1 for BPD, 2 for
// BPD1), and an arrival pushes it out only when its own port does not
// exceed the victim's. The arrival's virtual add never enters the
// ordering, so victim only compares ports.
type bpdRule struct {
	lens   []int
	minLen int
}

// summarize implements victimRule: the same downward scan as
// biggestNonEmpty, resumed at prev.top when there is one. That is
// exact: a push-out from top j for an arrival on port p.Port ≤ j
// changes no queue above j, and those were all below minLen.
//
//smb:hotpath
func (r bpdRule) summarize(prev summary) summary {
	lens := r.lens
	if prev.top >= 0 {
		lens = lens[:prev.top+1]
	}
	j := len(lens) - 1
	for j >= 0 && lens[j] < r.minLen {
		j--
	}
	return summary{top: j, next: -1}
}

// victim implements victimRule.
//
//smb:hotpath
func (bpdRule) victim(s summary, p pkt.Packet) int {
	if p.Port <= s.top {
		return s.top
	}
	return -1
}

// AdmitBatch implements core.BatchPolicy.
//
//smb:hotpath
func (BPD) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	pushOutBatch(b, ps, bpdRule{b.View().QueueLens(), 1})
}

// AdmitBatch implements core.BatchPolicy.
//
//smb:hotpath
func (BPD1) AdmitBatch(b *core.Batch, ps []pkt.Packet) {
	pushOutBatch(b, ps, bpdRule{b.View().QueueLens(), 2})
}

var (
	_ core.BatchPolicy = Greedy{}
	_ core.BatchPolicy = NHST{}
	_ core.BatchPolicy = NEST{}
	_ core.BatchPolicy = NHDT{}
	_ core.BatchPolicy = NHDTW{}
	_ core.BatchPolicy = StaticThreshold{}
	_ core.BatchPolicy = NHSTV{}
	_ core.BatchPolicy = LQD{}
	_ core.BatchPolicy = BPD{}
	_ core.BatchPolicy = BPD1{}
	_ core.BatchPolicy = LWD{}
	_ core.BatchPolicy = VLQD{}
	_ core.BatchPolicy = MVD{}
	_ core.BatchPolicy = MVD1{}
	_ core.BatchPolicy = MRD{}
	_ core.BatchPolicy = TVD{}
)
