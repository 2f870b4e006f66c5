package sim_test

import (
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
)

// FuzzArriveBatchDifferential fuzzes the kernel-vs-per-packet
// equivalence directly: a byte stream is decoded into arbitrary bursts
// (the high bit ends a slot) and replayed through ArriveBatch on two
// identically configured switches, one deciding through the policy's
// batch kernel and one through its per-packet Admit (admitOnly), both
// with invariant checking on. Stats must agree after every slot
// and per-port counters at the end. The roster byte picks the policy,
// covering every processing- and value-model kernel, and its high
// nibble sizes the value switches at 1–6 ports (3 when zero), so the push-out summaries see a single queue
// (no runner-up) and enough queues for the runner-up to stand in
// whenever the top candidate is the arrival's own port.
func FuzzArriveBatchDifferential(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 0x84, 5, 6, 0x81}, false)
	f.Add(uint8(4), []byte{9, 9, 9, 9, 0x89, 9, 9, 0x80}, false)
	f.Add(uint8(3), []byte{7, 1, 0xff, 2, 2, 2, 0x82}, true)
	f.Add(uint8(6), []byte{0x80, 0x80, 13, 21, 34, 0x85}, true)
	// Processing kernels on the generic family (port = byte mod 3).
	// NHDT: seven arrivals for port 2 overrun its threshold at the
	// fourth, then threshold drops on port 2 repeat, also after
	// accepts on ports 0 and 1 between them.
	f.Add(uint8(3), []byte{2, 2, 2, 2, 2, 2, 0x80, 2, 2, 2, 2, 0, 2, 2, 1, 2, 0x80}, false)
	// BPD: a full buffer pushes port 2 out to empty mid-burst, so the
	// summary moves its victim down to port 0, which then replaces
	// its own tail.
	f.Add(uint8(5), []byte{2, 0, 3, 6, 0, 3, 6, 0x81}, false)
	// BPD1: the push-out leaves port 2 at one packet mid-burst, which
	// no longer qualifies, so the next arrival for port 1 drops and the
	// one for port 0 pushes port 0 out.
	f.Add(uint8(6), []byte{2, 5, 0, 3, 6, 1, 4, 0x81}, false)
	// BPD and BPD1: port 2 still qualifies after the first push-out, so
	// the next summary resumes at port 2 itself and the arrival for
	// port 1 pushes port 2 out again.
	f.Add(uint8(5), []byte{2, 5, 8, 0, 3, 6, 1, 0x80}, false)
	f.Add(uint8(6), []byte{2, 5, 8, 0, 3, 6, 1, 0x80}, false)
	// LQD and LWD (B = 5, works 1..3, C = 2). LQD: lengths [1,2,2], so
	// the arrival for port 0 ties ports 1 and 2 and pushes port 2 out
	// (largest index), and the one for port 1 is on top and drops.
	f.Add(uint8(4), []byte{1, 4, 2, 5, 0, 0x81}, false)
	f.Add(uint8(4), []byte{1, 4, 2, 5, 0, 0x82}, false)
	// LWD: port 2's two packets fall to work 4 over a slot. Then works
	// [1,4,4] tie ports 1 and 2 against an arrival for port 0; works
	// [2,2,4] let an arrival for port 1 reach port 2's work 4 exactly,
	// which pushes port 2 out, and an arrival for port 2 drops.
	f.Add(uint8(7), []byte{2, 0x80, 1, 4, 0, 0x81}, false)
	f.Add(uint8(7), []byte{2, 0x80, 1, 0, 3, 0x82}, false)
	f.Add(uint8(7), []byte{2, 0x80, 1, 0, 3, 0x83}, false)
	// Ties set up in one slot and first met in the next, where the
	// burst's first summary recomputes them. LQD: a dropped arrival
	// for port 2 on top of [1,2,2] ends slot 1, transmission leaves
	// [0,1,2], and slot 2 refills to [1,2,2] before the congested
	// arrival for port 0 pushes port 2 out. LWD: slot 1 fills works
	// [0,6,6], transmission leaves [0,4,4], and an arrival for port 0
	// after one accept pushes port 2 out.
	f.Add(uint8(4), []byte{2, 5, 1, 4, 0, 0x83, 1, 0, 0x81}, false)
	f.Add(uint8(7), []byte{2, 5, 1, 4, 0x82, 0, 0x81}, false)
	// Ties: equal-length, equal-minimum value queues under VLQD, MVD and
	// MVD1 (all value 1), and equal MRD ratios (|Q|²/sum: two 1s and
	// four 2s both give 2) at 6 ports.
	f.Add(uint8(3), []byte{0, 1, 2, 0, 1, 2, 1, 0, 2, 0x80, 0, 1, 2, 0x81}, true)
	f.Add(uint8(4), []byte{0, 1, 2, 2, 1, 0, 0x81, 0, 1, 2, 2, 0x80}, true)
	f.Add(uint8(5), []byte{0, 1, 2, 0, 1, 2, 0x82, 2, 1, 0, 0x80}, true)
	f.Add(uint8(51), []byte{0, 0, 7, 7, 7, 7, 1, 13, 13, 0x86, 0, 7, 1, 0x80}, true)
	// A single port (VLQD; MRD), where the summary has no runner-up.
	f.Add(uint8(66), []byte{0, 4, 8, 12, 0, 4, 8, 0x80, 12, 0, 0x84}, true)
	f.Add(uint8(69), []byte{0, 4, 8, 12, 0, 4, 8, 0x80, 12, 0, 0x84}, true)
	f.Fuzz(func(t *testing.T, polIdx uint8, stream []byte, valueModel bool) {
		var pol core.Policy
		var cfg core.Config
		if valueModel {
			pols := append(policy.ForValueUniform(), policy.NHSTV{}, policy.TVD{})
			pol = pols[int(polIdx)%len(pols)]
			ports := 1 + (int(polIdx>>4)+2)%6
			cfg = core.Config{
				Model: core.ModelValue, Ports: ports, Buffer: ports + 2,
				MaxLabel: 4, Speedup: 1, CheckInvariants: true,
			}
		} else {
			pols := append(policy.ForProcessing(),
				policy.NHDTW{}, policy.StaticThreshold{T: []int{3, 2, 1}})
			pol = pols[int(polIdx)%len(pols)]
			cfg = core.Config{
				Model: core.ModelProcessing, Ports: 3, Buffer: 5,
				MaxLabel: 4, Speedup: 2, PortWork: []int{1, 2, 3},
				CheckInvariants: true,
			}
		}
		batched := core.MustNew(cfg, pol)
		perPkt := core.MustNew(cfg, admitOnly{pol})

		var burst []pkt.Packet
		flush := func() {
			if errB, errP := batched.ArriveBatch(burst), perPkt.ArriveBatch(burst); errB != nil || errP != nil {
				t.Fatalf("%s: arrival errors: batched=%v per-packet=%v", pol.Name(), errB, errP)
			}
			batched.Transmit()
			perPkt.Transmit()
			if sb, sp := batched.Stats(), perPkt.Stats(); sb != sp {
				t.Fatalf("%s: stats diverged\n batched: %+v\n per-pkt: %+v", pol.Name(), sb, sp)
			}
			burst = burst[:0]
		}
		for _, b := range stream {
			port := int(b) % cfg.Ports
			if valueModel {
				burst = append(burst, pkt.NewValue(port, 1+int(b>>2)%cfg.MaxLabel))
			} else {
				burst = append(burst, pkt.NewWork(port, cfg.PortWork[port]))
			}
			if b&0x80 != 0 {
				flush()
			}
		}
		flush()

		pb, pp := batched.PortCounters(), perPkt.PortCounters()
		for i := range pb {
			if pb[i] != pp[i] {
				t.Fatalf("%s: port %d counters diverged\n batched: %+v\n per-pkt: %+v", pol.Name(), i, pb[i], pp[i])
			}
		}
	})
}
