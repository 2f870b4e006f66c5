package policy

import (
	"smbm/internal/core"
	"smbm/internal/pkt"
)

// This file holds the two generic admission kernels every roster policy
// instantiates — the single admit/push-out skeleton the unified engine
// exposes across the processing, value and combined models. A policy
// supplies its cost trait as a small rule struct (its per-packet
// admission predicate or its push-out victim ordering, with the
// FastView slices hoisted at construction); the kernels own the shared
// skeleton: the free-space prefix, the burst-suffix wholesale drop,
// the engine drop memo, and the accept/drop/push-out bookkeeping.
//
// Rules are value types and the kernels are generic over them, so the
// compiler stencils one loop per rule with static dispatch — the batch
// hot paths stay allocation-free (internal/sim TestSteadyStateZeroAllocs).
//
// Only the kernels use the rule structs. Each policy's Admit is a
// separate plain-View scan, the paper-literal reference that custom
// View implementations and kernel-less wrappers run. Because the two
// share no code, the differential suites that replay one against the
// other check every rule independently.

// thresholdRule is the cost trait of a non-push-out policy: a pure
// admission predicate over the rule's hoisted state and the arriving
// packet. memo reports whether congested drops may be memoized in the
// engine's drop-memo table (profitable only when admit is O(n)).
type thresholdRule interface {
	//smb:hotpath
	admit(p pkt.Packet) bool
	//smb:hotpath
	memo() bool
}

// thresholdBatch decides a burst under a non-push-out rule: free space
// never grows during an arrival phase, so once it is exhausted the
// remaining suffix drops wholesale.
//
//smb:hotpath
func thresholdBatch[R thresholdRule](b *core.Batch, ps []pkt.Packet, r R) {
	free := b.Free()
	m := r.memo() // constant per rule: hoisted off the per-packet path
	for i := range ps {
		if free == 0 {
			b.DropAll(ps[i:])
			return
		}
		p := ps[i]
		if m && b.KnownDrop(p) {
			b.Drop(p)
			continue
		}
		if r.admit(p) {
			b.Accept(p)
			free--
		} else if m {
			b.DropMemo(p)
		} else {
			b.Drop(p)
		}
	}
}

// victimRule is the cost trait of a push-out policy: given a congested
// arrival, the queue to push out of, or -1 to drop the arrival. The
// rule encodes the whole victim ordering — drop-candidate ranking,
// virtual add of the arrival, own-queue displacement guards. memo as
// in thresholdRule.
type victimRule interface {
	//smb:hotpath
	victim(p pkt.Packet) int
	//smb:hotpath
	memo() bool
}

// pushOutBatch decides a burst under a push-out rule: the free-space
// prefix is accepted without any policy evaluation, and every
// congested arrival resolves through the rule's victim ordering (with
// the engine drop memo collapsing repeated identical drops when the
// rule opts in).
//
//smb:hotpath
func pushOutBatch[R victimRule](b *core.Batch, ps []pkt.Packet, r R) {
	free := b.Free()
	m := r.memo() // constant per rule: hoisted off the per-packet path
	for x := range ps {
		p := ps[x]
		if free > 0 {
			b.Accept(p)
			free--
			continue
		}
		if m {
			if b.KnownDrop(p) {
				b.Drop(p)
				continue
			}
			if j := r.victim(p); j >= 0 {
				b.PushOut(j, p)
			} else {
				b.DropMemo(p)
			}
			continue
		}
		if j := r.victim(p); j >= 0 {
			b.PushOut(j, p)
		} else {
			b.Drop(p)
		}
	}
}
