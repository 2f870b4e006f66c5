package policy

import (
	"smbm/internal/core"
	"smbm/internal/pkt"
)

// TVD (Total-Value-Drop) is the ablation behind the paper's design
// argument for MRD: "in the value case the total value per queue
// constitutes a poor choice but normalized value can potentially achieve
// constant competitiveness". TVD pushes out the cheapest packet of the
// queue holding the largest *total* value — the unnormalized analogue of
// MRD's |Q|/avg.
//
// The flaw the experiments expose: a queue is "rich" either because it is
// long or because its packets are valuable, so TVD raids exactly the
// high-value queues MVD-style policies try to protect. See
// TestAblationTVDVsMRD.
//
// Not part of the paper's roster.
type TVD struct{}

// Name implements core.Policy.
func (TVD) Name() string { return "TVD" }

// tvdRule is TVD's victim ordering over the hoisted length, minimum
// and sum lanes.
type tvdRule struct {
	lens, mins []int
	sums       []int64
}

// newTVDRule hoists the live slices once.
//
//smb:hotpath
func newTVDRule(f core.FastView) tvdRule {
	return tvdRule{f.QueueLens(), f.QueueMinValues(), f.QueueSums()}
}

// summarize implements victimRule: TVD adds no virtual arrival, so
// the summary is the max-sum non-empty queue itself (ties to the lower
// index) with the buffer's minimum value.
//
//smb:hotpath
func (r tvdRule) summarize(summary) summary {
	mins, sums := r.mins[:len(r.lens)], r.sums[:len(r.lens)]
	s := summary{top: -1, next: -1}
	bestSum := int64(-1) // every non-empty queue's sum exceeds it
	for j, l := range r.lens {
		if l == 0 {
			continue
		}
		if mv := mins[j]; s.min == 0 || mv < s.min {
			s.min = mv
		}
		if sum := sums[j]; sum > bestSum {
			s.top, bestSum = j, sum
		}
	}
	return s
}

// victim implements victimRule.
//
//smb:hotpath
func (r tvdRule) victim(s summary, p pkt.Packet) int {
	return guardedVictim(r.lens, r.mins, s.min, s.top, p)
}

// Admit implements core.Policy.
//
//smb:hotpath
func (TVD) Admit(v core.View, p pkt.Packet) core.Decision {
	if v.Free() > 0 {
		return core.Accept()
	}
	victim := -1
	var bestSum int64
	globalMin := 0
	for j := 0; j < v.Ports(); j++ {
		if v.QueueLen(j) == 0 {
			continue
		}
		mv := v.QueueMinValue(j)
		if globalMin == 0 || mv < globalMin {
			globalMin = mv
		}
		if sum := v.QueueValueSum(j); victim == -1 || sum > bestSum {
			victim, bestSum = j, sum
		}
	}
	return mrdDecide(v, p, victim, globalMin)
}

var _ core.Policy = TVD{}

// ValueExperimental returns value-model policies beyond the paper's
// roster.
func ValueExperimental() []core.Policy {
	return []core.Policy{TVD{}}
}
