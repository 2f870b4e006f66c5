// Package mapcheck executes the paper's Theorem 7 proof: it runs LWD and
// a non-push-out clairvoyant opponent ("OPT") in lockstep on the same
// arrival sequence while maintaining the mapping routine of Fig. 3
// (steps A0–A3 and the transmission rule T0), and checks Lemma 8's
// invariant after every event:
//
//   - every OPT-buffered packet is mapped to exactly one LWD packet;
//   - an eligible OPT packet (one mapped to a still-buffered LWD packet)
//     never has smaller latency than its image;
//   - every LWD packet carries at most one image by A0 and one by A1;
//   - OPT never transmits an eligible packet (T0's consequence).
//
// A successful run certifies, for that instance, the 2-competitiveness
// accounting of Theorem 7: every OPT transmission is charged to a
// transmitted LWD packet, at most two charges each. A policy that is
// not 2-competitive (e.g. BPD on the Theorem 5 script) must make the
// routine fail — the failure is the checker's negative control.
//
// The checker follows the proof's model exactly: unit speedup, packets
// processed one cycle per slot, LWD's ports served before OPT's within
// a transmission phase. Both systems are core.Switch engines, the same
// ones every experiment runs; the checker only tracks packet identities.
package mapcheck

import (
	"fmt"

	"smbm/internal/core"
	"smbm/internal/pkt"
)

// side is one system of the mapping: an engine and the ids of the
// packets it buffers, per port in FIFO order. The engine makes every
// decision; the id lists follow its queue lengths.
type side struct {
	sw  *core.Switch
	ids [][]int
}

func newSide(cfg core.Config, pol core.Policy) (*side, error) {
	sw, err := core.New(cfg, pol)
	if err != nil {
		return nil, err
	}
	return &side{sw: sw, ids: make([][]int, cfg.Ports)}, nil
}

// arrive offers p, identified by id, to the engine, which refuses a
// malformed packet before it decides; the error names the slot. It
// reports whether the engine accepted p and the id of the packet a
// push-out evicted (-1 if none). A push-out evicts the victim queue's
// tail, which is the queue whose id list outgrew its length once p's own
// admission is counted.
func (s *side) arrive(p pkt.Packet, id int) (accepted bool, evicted int, err error) {
	before := s.sw.Stats()
	if err := s.sw.Arrive(p); err != nil {
		return false, -1, fmt.Errorf("mapcheck: %s at slot %d: %w", s.sw.Name(), s.sw.Slot(), err)
	}
	after := s.sw.Stats()
	evicted = -1
	if after.PushedOut > before.PushedOut {
		for j, q := range s.ids {
			n := s.sw.QueueLen(j)
			if j == p.Port {
				n-- // a push-out always admits p
			}
			if len(q) > n {
				evicted = q[len(q)-1]
				s.ids[j] = q[:len(q)-1]
				break
			}
		}
	}
	accepted = after.Accepted > before.Accepted
	if accepted {
		s.ids[p.Port] = append(s.ids[p.Port], id)
	}
	return accepted, evicted, nil
}

// transmit runs one transmission phase and calls sent with the id of
// each packet it completed, in port order, stopping at sent's first
// error. At unit speedup a port completes at most its head-of-line
// packet per slot.
func (s *side) transmit(sent func(id int) error) error {
	s.sw.Transmit()
	for j, q := range s.ids {
		if len(q) > s.sw.QueueLen(j) {
			s.ids[j] = q[1:]
			if err := sent(q[0]); err != nil {
				return err
			}
		}
	}
	return nil
}

// latency returns the slots until the packet at position idx of queue j
// transmits, absent future push-outs (unit speedup): the queue's
// residual work less the work queued behind the packet.
func (s *side) latency(j, idx int) int {
	return s.sw.QueueWork(j) - (s.sw.QueueLen(j)-1-idx)*s.sw.PortWork(j)
}

// latencyOf locates a packet by id and returns its latency, or -1 if it
// is no longer buffered.
func (s *side) latencyOf(id int) int {
	for j, q := range s.ids {
		for idx, qid := range q {
			if qid == id {
				return s.latency(j, idx)
			}
		}
	}
	return -1
}
