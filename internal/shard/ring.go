// Package shard is the concurrent shell around the deterministic
// engine: it partitions a switch's output ports across N shards, each
// of which owns a private core.Switch and steps it single-threaded,
// fed through a lock-free single-producer/single-consumer ingress
// ring. Concurrency lives entirely in this package (and in the daemon
// wrapping it); the engine packages behind the concfence lint remain
// goroutine-free, which is what keeps the sharded runtime auditable:
// every shard's slot sequence is bit-identical to a single-threaded
// sim.RunTrace replay of the same traffic partition, so the
// deterministic engine doubles as the differential oracle for the
// concurrent runtime.
//
// The package has two layers:
//
//   - Ring: the SPSC ingress ring carrying packed 8-byte arrival and
//     control entries between exactly one producer goroutine and one
//     shard goroutine, in batches that publish a cursor once each;
//   - Shard/Runtime: the shard event loop around core.Switch and the
//     port-partitioned runtime that routes arrivals, advances slots,
//     drains, and collects per-shard results. Runtime.IngestSlot is the
//     batched producer path: it validates a whole slot, then hands each
//     shard its part of the slot and the slot's advance in one ring
//     batch.
package shard

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"smbm/internal/pkt"
)

// Entry is one packed ring element: either an arrival (slot, local
// port, work, value) or a control opcode. The layout mirrors the
// traffic binary-framing record — slot in the high 32 bits, then a
// 16-bit port and one byte each of work and value — so a stream
// record converts to an entry with shifts only:
//
//	bits 63..32  slot  (uint32)
//	bits 31..16  port  (uint16; CtlPort marks a control entry)
//	bits 15..8   work  (uint8; control entries carry the opcode here)
//	bits  7..0   value (uint8)
type Entry uint64

// CtlPort is the reserved port number marking control entries. Real
// shard-local ports must stay below it; Runtime enforces the bound.
const CtlPort = 0xFFFF

// Control opcodes, carried in a control entry's work byte.
const (
	// OpAdvance tells the shard to step every slot strictly below the
	// entry's slot field, so its slot counter reaches that value.
	OpAdvance = 1
	// OpDrain tells the shard to flush pending arrivals, drain its
	// switch empty, publish results, and acknowledge on its ack
	// channel. The entry's slot field is the advance target applied
	// first (equivalent to a preceding OpAdvance).
	OpDrain = 2
	// OpStop tells the shard to exit its event loop. The shard closes
	// its done channel on the way out.
	OpStop = 3
)

// Arrival packs an arrival entry for a shard-local port.
func Arrival(slot int64, p pkt.Packet) Entry {
	return Entry(uint64(uint32(slot))<<32 |
		uint64(uint16(p.Port))<<16 |
		uint64(uint8(p.Work))<<8 |
		uint64(uint8(p.Value)))
}

// Control packs a control entry with the given opcode and slot field.
func Control(op uint8, slot int64) Entry {
	return Entry(uint64(uint32(slot))<<32 | uint64(CtlPort)<<16 | uint64(op)<<8)
}

// Slot returns the entry's slot field.
func (e Entry) Slot() int64 { return int64(uint32(e >> 32)) }

// Port returns the entry's port field (CtlPort for control entries).
func (e Entry) Port() int { return int(uint16(e >> 16)) }

// Op returns the control opcode for control entries; for arrivals the
// same byte is the packet's work label.
func (e Entry) Op() uint8 { return uint8(e >> 8) }

// IsControl reports whether the entry is a control entry.
func (e Entry) IsControl() bool { return e.Port() == CtlPort }

// Packet unpacks an arrival entry's packet (shard-local port).
func (e Entry) Packet() pkt.Packet {
	return pkt.Packet{
		Port:  e.Port(),
		Work:  int(uint8(e >> 8)),
		Value: int(uint8(e)),
	}
}

// spinBudget is how many failed polls a ring side tolerates (yielding
// the processor between attempts) before parking on its wake channel.
// Parking keeps idle shards and back-pressured producers off the CPU —
// a long-running daemon must not spin while no stream is active.
const spinBudget = 128

// pad keeps the producer- and consumer-owned ring fields on separate
// cache lines so head and tail updates do not false-share.
type pad [64]byte

// Ring is a lock-free single-producer/single-consumer ring of packed
// entries. Exactly one goroutine may call the producer side (PushBatch,
// Push) and exactly one the consumer side (PopBatch); the two may
// differ. The capacity is rounded up to a power of two.
//
// Entries move in batches: PushBatch copies a run of entries in and
// publishes the tail cursor once, PopBatch copies a run out and
// publishes the head cursor once, and each checks the other side's park
// flag once per batch. Push is a one-entry batch, so there is one
// publish protocol. Each side keeps a private
// copy of the opposite cursor (the producer of head, the consumer of
// tail) and reloads it only when the copy shows too little room or
// nothing to pop, so the cache line the other side writes is read about
// once per batch rather than once per entry. Both sides are wait-free
// while the ring is neither full nor empty and spin briefly, then park
// on a wake channel otherwise, so an idle ring costs no CPU.
//
// Memory ordering: the producer writes buf[tail..tail+k) before its
// atomic tail store, and the consumer's atomic tail load therefore
// observes the element writes (release/acquire pairing per the Go
// memory model); symmetrically for head on the reuse path. A cached
// cursor is only ever behind the real one, so it can understate room or
// entries, never overstate them.
type Ring struct {
	_    pad
	buf  []Entry
	mask uint64
	_    pad
	// Consumer-written line. head is the next index to pop; tailCache
	// is the consumer's copy of tail. prodParked lives here because the
	// consumer reads it after every pop batch: the producer sets it
	// before re-checking fullness and parking on prodWake.
	head       atomic.Uint64
	tailCache  uint64
	prodParked atomic.Bool
	prodWake   chan struct{}
	_          pad
	// Producer-written line, the mirror image: tail is the next index to
	// fill, headCache the producer's copy of head, and consParked the
	// flag the consumer sets before parking on consWake.
	tail       atomic.Uint64
	headCache  uint64
	consParked atomic.Bool
	consWake   chan struct{}
	_          pad
}

// maxRingCap is the largest ring capacity: the largest power of two an
// int holds.
const maxRingCap = 1 << (bits.UintSize - 2)

// NewRing builds a ring with at least the given capacity (rounded up
// to a power of two, minimum 2). It panics on a capacity above
// maxRingCap, which has no power-of-two round-up; NewRuntime refuses
// one with an error instead.
func NewRing(capacity int) *Ring {
	if capacity > maxRingCap {
		panic(fmt.Sprintf("shard: ring capacity %d exceeds %d", capacity, maxRingCap))
	}
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring{
		buf:      make([]Entry, n),
		mask:     uint64(n - 1),
		consWake: make(chan struct{}, 1),
		prodWake: make(chan struct{}, 1),
	}
}

// Cap returns the ring's capacity in entries.
func (r *Ring) Cap() int { return len(r.buf) }

// Len returns the number of entries currently buffered. It is exact
// when called from either of the ring's two goroutines and a snapshot
// otherwise.
func (r *Ring) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// wake hands a parked peer its token: clear the flag, then send without
// blocking (a token already waiting costs only a spurious wakeup).
func wake(parked *atomic.Bool, ch chan struct{}) {
	if parked.Load() {
		parked.Store(false)
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// tryPush publishes the longest prefix of es that fits and returns its
// length. This is the ring's one producer-side publish: every push goes
// through it, which keeps tail − headCache ≤ Cap at all times.
func (r *Ring) tryPush(es []Entry) int {
	t := r.tail.Load()
	n := uint64(len(r.buf))
	free := n - (t - r.headCache)
	if free < uint64(len(es)) {
		r.headCache = r.head.Load()
		free = n - (t - r.headCache)
	}
	k := min(free, uint64(len(es)))
	if k == 0 {
		return 0
	}
	for i, e := range es[:k] {
		r.buf[(t+uint64(i))&r.mask] = e
	}
	r.tail.Store(t + k)
	wake(&r.consParked, r.consWake)
	return int(k)
}

// tryPop moves up to len(dst) of the oldest entries into dst and
// returns how many. This is the ring's one consumer-side publish.
func (r *Ring) tryPop(dst []Entry) int {
	h := r.head.Load()
	if r.tailCache == h {
		r.tailCache = r.tail.Load()
		if r.tailCache == h {
			return 0
		}
	}
	k := min(r.tailCache-h, uint64(len(dst)))
	for i := range dst[:k] {
		dst[i] = r.buf[(h+uint64(i))&r.mask]
	}
	r.head.Store(h + k)
	wake(&r.prodParked, r.prodWake)
	return int(k)
}

// PushBatch appends every entry of es in order, publishing as much of
// the batch as fits at once and spinning briefly, then parking, while
// the ring is full. A batch larger than the capacity is published in
// several parts. Producer side only.
func (r *Ring) PushBatch(es []Entry) {
	for spins := 0; ; spins++ {
		k := r.tryPush(es)
		if es = es[k:]; len(es) == 0 {
			return
		}
		if k > 0 {
			spins = 0
		}
		if spins < spinBudget {
			runtime.Gosched()
			continue
		}
		// Park: set the flag, then re-check fullness so a pop that
		// raced ahead of the flag store cannot strand us.
		r.prodParked.Store(true)
		if r.tail.Load()-r.head.Load() < uint64(len(r.buf)) {
			r.prodParked.Store(false)
			spins = 0
			continue
		}
		<-r.prodWake
		spins = 0
	}
}

// PopBatch moves the oldest buffered entries into dst, at least one
// and at most len(dst), spinning briefly and then parking while the
// ring is empty, and returns how many it moved. dst must not be empty.
// Consumer side only.
func (r *Ring) PopBatch(dst []Entry) int {
	for spins := 0; ; spins++ {
		if k := r.tryPop(dst); k > 0 {
			return k
		}
		if spins < spinBudget {
			runtime.Gosched()
			continue
		}
		r.consParked.Store(true)
		if r.head.Load() != r.tail.Load() {
			r.consParked.Store(false)
			spins = 0
			continue
		}
		<-r.consWake
		spins = 0
	}
}

// Push appends e, spinning briefly and then parking while the ring is
// full. Producer side only.
func (r *Ring) Push(e Entry) {
	one := [1]Entry{e}
	r.PushBatch(one[:])
}
