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
// covering every processing-, value- and combined-model kernel
// (combined takes precedence over valueModel when both bools are set).
func FuzzArriveBatchDifferential(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 0x84, 5, 6, 0x81}, false, false)
	f.Add(uint8(4), []byte{9, 9, 9, 9, 0x89, 9, 9, 0x80}, false, false)
	f.Add(uint8(3), []byte{7, 1, 0xff, 2, 2, 2, 0x82}, true, false)
	f.Add(uint8(6), []byte{0x80, 0x80, 13, 21, 34, 0x85}, true, false)
	f.Add(uint8(5), []byte{3, 1, 4, 0x81, 5, 9, 2, 0x86}, false, true)
	f.Add(uint8(6), []byte{0x8f, 7, 7, 7, 0x80, 1, 0x82}, true, true)
	f.Fuzz(func(t *testing.T, polIdx uint8, stream []byte, valueModel, combined bool) {
		var pol core.Policy
		var cfg core.Config
		switch {
		case combined:
			pols := policy.ForCombined()
			pol = pols[int(polIdx)%len(pols)]
			cfg = core.Config{
				Model: core.ModelCombined, Ports: 3, Buffer: 5,
				MaxLabel: 4, Speedup: 2, PortWork: []int{1, 2, 3},
				CheckInvariants: true,
			}
		case valueModel:
			pols := append(policy.ForValueUniform(), policy.NHSTV{}, policy.TVD{})
			pol = pols[int(polIdx)%len(pols)]
			cfg = core.Config{
				Model: core.ModelValue, Ports: 3, Buffer: 5,
				MaxLabel: 4, Speedup: 1, CheckInvariants: true,
			}
		default:
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
			switch {
			case combined:
				burst = append(burst, pkt.NewWorkValue(port, cfg.PortWork[port], 1+int(b>>2)%cfg.MaxLabel))
			case valueModel:
				burst = append(burst, pkt.NewValue(port, 1+int(b>>2)%cfg.MaxLabel))
			default:
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
