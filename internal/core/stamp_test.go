package core

import (
	"testing"

	"smbm/internal/pkt"
)

// These tests pin the lifetime contract of the drop-memo epoch
// (memoEpoch and the memoStamp table it guards): the epoch is monotone
// across Reset and SetPolicy — it is never rezeroed — so a stamp
// recorded in any earlier incarnation of the switch state can never
// alias a live one. That is what lets an unbounded daemon
// (cmd/smbsimd) run stream after stream over one Switch without ever
// clearing the memo table; the wraparound story (int64, a few
// increments per packet, centuries to overflow) is documented on the
// field declaration in switch.go.

// stampedDropper drops everything through the memo so every burst
// leaves live memo stamps behind.
var stampedDropper = PolicyFunc{PolicyName: "stampedDropper", Func: func(View, pkt.Packet) Decision {
	return Drop()
}}

func TestBatchStampsMonotoneAcrossResetAndPolicySwap(t *testing.T) {
	cfg := validProcCfg()
	sw := MustNew(cfg, greedy)
	burst := []pkt.Packet{{Port: 0, Work: 1, Value: 1}, {Port: 1, Work: 2, Value: 2}}

	if sw.memoEpoch != 0 {
		t.Fatalf("fresh switch epoch = %d, want 0", sw.memoEpoch)
	}
	if err := sw.ArriveBatch(burst); err != nil {
		t.Fatalf("ArriveBatch: %v", err)
	}
	epoch1 := sw.memoEpoch
	if epoch1 <= 0 {
		t.Fatalf("epoch after one batch = %d, want positive", epoch1)
	}

	// Reset clears every queue and counter but must leave the epoch in
	// place: rezeroing it would let pre-Reset memo entries validate
	// against post-Reset epochs.
	sw.Reset()
	if sw.memoEpoch != epoch1 {
		t.Fatalf("Reset moved the epoch: %d -> %d", epoch1, sw.memoEpoch)
	}
	if err := sw.ArriveBatch(burst); err != nil {
		t.Fatalf("ArriveBatch after Reset: %v", err)
	}
	epoch2 := sw.memoEpoch
	if epoch2 <= epoch1 {
		t.Fatalf("epoch not monotone across Reset: %d then %d", epoch1, epoch2)
	}

	// Same across a policy swap — the daemon's between-streams path is
	// exactly Reset + SetPolicy on a long-lived switch.
	sw.Reset()
	if err := sw.SetPolicy(stampedDropper); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	if sw.memoEpoch != epoch2 {
		t.Fatalf("SetPolicy moved the epoch: %d -> %d", epoch2, sw.memoEpoch)
	}
	if err := sw.ArriveBatch(burst); err != nil {
		t.Fatalf("ArriveBatch after SetPolicy: %v", err)
	}
	if sw.memoEpoch <= epoch2 {
		t.Fatalf("epoch not monotone across SetPolicy: %d then %d", epoch2, sw.memoEpoch)
	}
}

// TestMemoStampNeverRevivesAcrossReset drives the aliasing scenario the
// monotone epoch rules out: a (port, value) memoized as a drop before
// Reset must not register as a known drop in any batch after it.
func TestMemoStampNeverRevivesAcrossReset(t *testing.T) {
	cfg := validProcCfg()
	p := pkt.Packet{Port: 2, Work: 3, Value: 4}
	var known []bool
	probe := batchProbe{p: p, known: &known}
	sw := MustNew(cfg, probe)

	// Stamp p's (port, value) in the memo, then Reset.
	if err := sw.ArriveBatch([]pkt.Packet{p}); err != nil {
		t.Fatalf("ArriveBatch: %v", err)
	}
	sw.Reset()
	if err := sw.ArriveBatch([]pkt.Packet{p, p}); err != nil {
		t.Fatalf("ArriveBatch after Reset: %v", err)
	}
	if len(known) != 3 {
		t.Fatalf("probe saw %d decisions for p, want 3", len(known))
	}
	if known[0] {
		t.Fatalf("fresh memo reported a known drop")
	}
	if known[1] {
		t.Fatalf("pre-Reset memo stamp validated in a post-Reset batch")
	}
	if !known[2] {
		t.Fatalf("same-batch DropMemo stamp did not validate")
	}
}

// batchProbe is a BatchPolicy that memo-drops every packet and records
// KnownDrop's verdict for the probed packet before each decision.
type batchProbe struct {
	p     pkt.Packet
	known *[]bool
}

func (b batchProbe) Name() string { return "batchProbe" }

func (b batchProbe) Admit(View, pkt.Packet) Decision { return Drop() }

func (b batchProbe) AdmitBatch(batch *Batch, ps []pkt.Packet) {
	for _, p := range ps {
		if p == b.p {
			*b.known = append(*b.known, batch.KnownDrop(p))
		}
		batch.DropMemo(p)
	}
}
