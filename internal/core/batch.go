package core

import (
	"fmt"

	"smbm/internal/obs"
	"smbm/internal/pkt"
)

// BatchPolicy is optionally implemented by policies that can decide a
// whole slot's arrival burst through a Batch executor instead of one
// Admit call per packet. A batch kernel sees the burst up front, so it
// can hoist threshold computations, reuse argmax results across a
// burst prefix, and memoize drop decisions (see Batch.KnownDrop) —
// the per-burst evaluation the per-packet interface cannot express.
//
// The contract is bit-identity: AdmitBatch must execute exactly the
// decision sequence the policy's Admit would produce packet by packet,
// in arrival order, calling exactly one executor op (Accept, Drop,
// DropMemo, DropAll or PushOut) per packet. The differential and fuzz
// suites enforce this for every roster policy against the same policy
// driven through Batch.PerPacket.
type BatchPolicy interface {
	Policy
	// AdmitBatch decides every packet of ps in arrival order via b.
	//smb:hotpath
	AdmitBatch(b *Batch, ps []pkt.Packet)
}

// ArriveBatch runs one arrival phase over a whole burst, in order,
// through the policy's batch kernel when it implements BatchPolicy and
// through per-packet Admit calls otherwise. It is the engine's only
// arrival path.
//
// Every packet is validated up front: a malformed packet fails the
// burst before anything is applied, reported as a *BurstError with
// Applied == 0. Admission decisions are final, and every executor op
// checks its decision before it mutates, so a failing decision (an
// accept into a full buffer, an invalid push-out victim, a kernel that
// leaves packets undecided) leaves exactly the decided prefix applied:
// the *BurstError carries Applied == Index, and Stats, PortCounters,
// obs counters and trace events reflect packets [0, Index) only. A
// CheckInvariants violation reports engine corruption after packet
// Index was applied (Applied == Index+1).
//
//smb:hotpath
func (s *Switch) ArriveBatch(ps []pkt.Packet) error {
	if len(ps) == 0 {
		return nil
	}
	for i := range ps {
		if err := ps[i].Validate(s.cfg.Ports, s.cfg.MaxLabel); err != nil {
			//smb:alloc-ok validation failure path, never taken by well-formed input
			return &BurstError{Index: i, Err: err}
		}
		if s.fifo && ps[i].Work != s.works[ps[i].Port] {
			//smb:alloc-ok validation failure path, never taken by well-formed input
			return &BurstError{Index: i, Err: fmt.Errorf("core: packet work %d does not match port %d configuration %d", ps[i].Work, ps[i].Port, s.works[ps[i].Port])}
		}
	}
	// The transmission phase since the previous burst mutated the
	// queues, so no earlier drop-memo stamp may validate.
	s.memoEpoch++
	b := &s.batch
	b.idx, b.err, b.errIdx = 0, nil, 0
	if s.batchPol != nil {
		s.batchPol.AdmitBatch(b, ps)
	} else {
		b.PerPacket(ps)
	}
	if b.err == nil && b.idx != len(ps) {
		//smb:alloc-ok kernel-contract failure path, never taken by a conforming policy
		b.fail(fmt.Errorf("core: policy %s batch kernel decided %d of %d packets", s.policy.Name(), b.idx, len(ps)))
	}
	if b.err != nil {
		//smb:alloc-ok decision failure path, never taken by a correct policy
		return &BurstError{Index: b.errIdx, Applied: b.idx, Err: b.err}
	}
	return nil
}

// Batch executes one burst's admission decisions against the switch.
// Exactly one op — Accept, Drop, DropMemo, DropAll or PushOut — must
// be called per packet, in arrival order. Errors are sticky: after a
// failed op every further op is a no-op, Err reports the failure, and
// ArriveBatch reports the decided prefix as applied. A Batch is only
// valid inside the AdmitBatch call it is passed to; kernels must not
// retain it.
type Batch struct {
	s      *Switch
	idx    int // packets decided so far
	err    error
	errIdx int
}

// View returns the switch state as a FastView, live across ops: reads
// after an Accept or PushOut observe the mutated queues, exactly like
// consecutive per-packet Admit calls. The usual FastView contract
// applies — returned slices are read-only.
func (b *Batch) View() FastView { return b.s }

// Err returns the sticky failure, nil while the batch is healthy.
// Kernels may break out early when it is non-nil; every op no-ops once
// it is set.
func (b *Batch) Err() error { return b.err }

// Free returns the free space below the effective buffer, matching
// View.Free. Non-push-out kernels can drop an entire burst suffix once
// it reaches zero (free space never grows during an arrival phase).
//
//smb:hotpath
func (b *Batch) Free() int {
	if free := b.s.effBuf - b.s.occ; free > 0 {
		return free
	}
	return 0
}

// Accept admits the next packet into its destination queue without an
// eviction. A plain accept needs room below the effective (possibly
// squeezed) buffer; without it the op fails and mutates nothing.
//
//smb:hotpath
func (b *Batch) Accept(p pkt.Packet) {
	if b.err != nil {
		return
	}
	s := b.s
	if s.occ >= s.effBuf {
		b.failFull(s.occ, s.effBuf)
		return
	}
	b.admit(p)
}

// Drop rejects the next packet: the arrival and drop counters move and
// the tail-drop event records, mutating no queue state.
//
//smb:hotpath
func (b *Batch) Drop(p pkt.Packet) {
	if b.err != nil {
		return
	}
	s := b.s
	s.stats.Arrived++
	s.stats.Dropped++
	pc := &s.perPort[p.Port]
	pc.Arrived++
	pc.Dropped++
	if s.rec != nil {
		s.rec.Inc(p.Port, obs.KindTailDrop)
		s.rec.Trace(s.slot, p.Port, obs.KindTailDrop, p.Work, p.Value)
	}
	b.idx++
}

// DropAll rejects a whole burst suffix, packet by packet, in order.
// Kernels use it once a burst prefix has pinned the remaining
// decisions (e.g. Free() reached zero under a non-push-out policy).
//
//smb:hotpath
func (b *Batch) DropAll(ps []pkt.Packet) {
	for i := range ps {
		b.Drop(ps[i])
	}
}

// DropMemo is Drop plus memoization: it stamps (port, value) in the
// engine's drop-memo table so KnownDrop short-circuits an identical
// later arrival, as long as no state mutation intervened.
//
//smb:hotpath
func (b *Batch) DropMemo(p pkt.Packet) {
	if b.err != nil {
		return
	}
	s := b.s
	s.memoStamp[p.Port*s.memoStride+p.Value] = s.memoEpoch
	b.Drop(p)
}

// KnownDrop reports whether an identical packet was dropped via
// DropMemo with no state mutation since. The memo is sound because
// policies are pure functions of (View, Packet), a packet is fully
// determined by (port, value) given the switch configuration (work is
// per-port), and the memo epoch advances on every accept and push-out
// and at the start of every burst (covering the transmission phase in
// between): a stamped drop therefore replays the exact same policy
// evaluation.
//
// The epoch is monotone over the switch's whole lifetime — Reset and
// SetPolicy leave it in place and the next burst advances past it, so
// a stamp from before a reset or policy swap can never validate — and
// its int64 width makes wraparound (the other way a stale stamp could
// alias a live epoch) infeasible even for an unbounded daemon; see the
// field docs in switch.go.
//
//smb:hotpath
func (b *Batch) KnownDrop(p pkt.Packet) bool {
	s := b.s
	return s.memoStamp[p.Port*s.memoStride+p.Value] == s.memoEpoch
}

// PushOut evicts one packet from queue victim (the FIFO tail in the
// processing and combined models, the minimum value in the value
// model) and admits p in its place. The victim and the buffer bound
// are checked before the eviction, so a violating decision mutates
// nothing. A push-out admission is occupancy-neutral, so during a
// buffer squeeze it only needs the physical bound.
//
//smb:hotpath
func (b *Batch) PushOut(victim int, p pkt.Packet) {
	if b.err != nil {
		return
	}
	s := b.s
	if err := s.canEvict(victim); err != nil {
		b.failEvict(err)
		return
	}
	if s.occ-1 >= s.cfg.Buffer {
		b.failFull(s.occ-1, s.cfg.Buffer)
		return
	}
	remWork, remValue := s.evict(victim)
	s.stats.PushedOut++
	s.perPort[victim].PushedOut++
	if s.rec != nil {
		s.rec.Inc(victim, obs.KindPushOut)
		s.rec.Add(victim, obs.KindPushedOutWork, uint64(remWork))
		s.rec.Add(victim, obs.KindPushedOutValue, uint64(remValue))
		s.rec.Trace(s.slot, victim, obs.KindPushOut, remWork, remValue)
	}
	b.admit(p)
}

// admit inserts the next packet, already cleared for admission: the
// arrival and acceptance counters move, the admit event records, the
// occupancy high-water mark updates and the memo epoch advances.
//
//smb:hotpath
func (b *Batch) admit(p pkt.Packet) {
	s := b.s
	s.stats.Arrived++
	pc := &s.perPort[p.Port]
	pc.Arrived++
	s.insert(p)
	s.stats.Accepted++
	pc.Accepted++
	if s.rec != nil {
		s.rec.Inc(p.Port, obs.KindAdmit)
		s.rec.Trace(s.slot, p.Port, obs.KindAdmit, p.Work, p.Value)
	}
	s.stats.observeOccupancy(s.occ)
	s.memoEpoch++
	b.idx++
	if s.cfg.CheckInvariants {
		b.checkInvariants()
	}
}

// Apply executes one per-packet Decision through the batch ops,
// bridging Admit-style decisions into the executor.
//
//smb:hotpath
func (b *Batch) Apply(d Decision, p pkt.Packet) {
	switch {
	case !d.Accept:
		b.Drop(p)
	case d.Push:
		b.PushOut(d.Victim, p)
	default:
		b.Accept(p)
	}
}

// PerPacket decides the burst with one policy.Admit call per packet —
// the path for policies without a batch kernel.
//
//smb:hotpath
func (b *Batch) PerPacket(ps []pkt.Packet) {
	for i := range ps {
		if b.err != nil {
			return
		}
		b.Apply(b.s.policy.Admit(b.s, ps[i]), ps[i])
	}
}

// checkInvariants runs verify after an applied packet (CheckInvariants
// mode), failing the batch on corruption. The failing index is the
// packet just applied.
func (b *Batch) checkInvariants() {
	if err := b.s.verify(); err != nil {
		b.err = err
		b.errIdx = b.idx - 1
	}
}

// failFull records the sticky full-buffer failure.
//
//smb:hotpath
func (b *Batch) failFull(occ, limit int) {
	//smb:alloc-ok policy-violation failure path, never taken by a correct policy
	b.fail(fmt.Errorf("core: policy %s accepted into a full buffer (occ=%d, B=%d)", b.s.policy.Name(), occ, limit))
}

// failEvict records the sticky eviction-validation failure.
//
//smb:hotpath
func (b *Batch) failEvict(err error) {
	//smb:alloc-ok policy-violation failure path, never taken by a correct policy
	b.fail(fmt.Errorf("core: policy %s: %w", b.s.policy.Name(), err))
}

// fail records the sticky failure at the current packet index.
func (b *Batch) fail(err error) {
	b.err = err
	b.errIdx = b.idx
}
