package policy

import (
	"smbm/internal/core"
	"smbm/internal/pkt"
)

// This file holds the two generic admission kernels every roster
// policy instantiates — the admit/push-out skeletons the unified engine
// exposes across the processing and value models. A policy supplies its
// cost trait as a small rule struct (its per-packet admission predicate
// or its push-out victim ordering, with the FastView slices hoisted at
// construction); the kernels own the shared skeleton: the free-space
// prefix, the burst-suffix wholesale drop (threshold rules), the
// once-per-state summary (summarized push-out rules), and the
// accept/drop/push-out bookkeeping.
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
// packet.
type thresholdRule interface {
	//smb:hotpath
	admit(p pkt.Packet) bool
}

// thresholdBatch decides a burst under a non-push-out rule: free space
// never grows during an arrival phase, so once it is exhausted the
// remaining suffix drops wholesale.
//
//smb:hotpath
func thresholdBatch[R thresholdRule](b *core.Batch, ps []pkt.Packet, r R) {
	free := b.Free()
	for i := range ps {
		if free == 0 {
			b.DropAll(ps[i:])
			return
		}
		p := ps[i]
		if r.admit(p) {
			b.Accept(p)
			free--
		} else {
			b.Drop(p)
		}
	}
}

// summary is a push-out rule's digest of one switch state, computed by
// a single O(n) scan that leaves the arrival's virtual add out: the
// best and runner-up drop candidates under the rule's exact ordering,
// tie-breaks included (-1 when absent), and the minimum buffered value
// over the rule's candidate queues (0 when there is none).
type summary struct {
	top, next int
	min       int
}

// victimRule is the cost trait of a push-out policy whose victim
// ordering is an O(n) scan over the queues (LQD, LWD, BPD/BPD1, VLQD,
// MVD/MVD1, MRD, TVD), split in two: summarize is the scan over the
// current state, given the summary of the burst's previous state (top
// -1 when there is none), and victim folds a congested arrival's own
// port — the only queue its virtual add changes — into that summary in
// O(1), returning the queue to push out of or -1 to drop the arrival.
// A rule that keeps a runner-up keeps the best queue other than the
// top, for when the top is the arrival's own port.
type victimRule interface {
	//smb:hotpath
	summarize(prev summary) summary
	//smb:hotpath
	victim(s summary, p pkt.Packet) int
}

// pushOutBatch decides a burst under a summarized push-out rule: the
// free-space prefix is accepted without any policy evaluation, and
// every congested arrival resolves through the rule's victim against
// the current state's summary. A drop mutates nothing, so the summary
// is recomputed only when an accept or a push-out changed the state
// since it was taken: one scan per state, not one per congested
// arrival. The free prefix ends before the first summary, so every
// later one follows a push-out and may resume from its predecessor.
//
//smb:hotpath
func pushOutBatch[R victimRule](b *core.Batch, ps []pkt.Packet, r R) {
	free := b.Free()
	s := summary{top: -1, next: -1}
	stale := true
	for x := range ps {
		p := ps[x]
		if free > 0 {
			b.Accept(p)
			free--
			continue
		}
		if stale {
			s = r.summarize(s)
			stale = false
		}
		if j := r.victim(s, p); j >= 0 {
			b.PushOut(j, p)
			stale = true
		} else {
			b.Drop(p)
		}
	}
}

// guardedVictim is the closing case split MRD and TVD share over
// their max-rank queue: a cross-queue push-out requires the arrival to
// be worth at least the cheapest buffered value anywhere (globalMin),
// and an arrival for the max-rank queue itself only displaces a
// strictly cheaper minimum.
//
//smb:hotpath
func guardedVictim(lens, mins []int, globalMin, victim int, p pkt.Packet) int {
	if victim != p.Port {
		if globalMin <= p.Value {
			return victim
		}
		return -1
	}
	if lens[p.Port] > 0 && mins[p.Port] < p.Value {
		return p.Port
	}
	return -1
}
