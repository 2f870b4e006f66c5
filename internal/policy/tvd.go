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

// victim implements victimRule.
//
//smb:hotpath
func (r tvdRule) victim(p pkt.Packet) int {
	victim := -1
	var bestSum int64
	globalMin := 0
	for j, l := range r.lens {
		if l == 0 {
			continue
		}
		if mv := r.mins[j]; globalMin == 0 || mv < globalMin {
			globalMin = mv
		}
		if sum := r.sums[j]; victim == -1 || sum > bestSum {
			victim, bestSum = j, sum
		}
	}
	if victim != p.Port {
		if globalMin <= p.Value {
			return victim
		}
		return -1
	}
	if r.lens[p.Port] > 0 && r.mins[p.Port] < p.Value {
		return p.Port
	}
	return -1
}

// memo implements victimRule (see vlqdRule.memo).
func (tvdRule) memo() bool { return true }

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
	return tvdDecide(v, p, victim, globalMin)
}

// tvdDecide turns TVD's max-sum scan result into a decision — the
// plain-View reference twin of tvdRule.victim's closing case split.
//
//smb:hotpath
func tvdDecide(v core.View, p pkt.Packet, victim, globalMin int) core.Decision {
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

var _ core.Policy = TVD{}

// ValueExperimental returns value-model policies beyond the paper's
// roster.
func ValueExperimental() []core.Policy {
	return []core.Policy{TVD{}}
}
