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
//     shard goroutine;
//   - Shard/Runtime: the shard event loop around core.Switch and the
//     port-partitioned runtime that routes arrivals, advances slots,
//     drains, and collects per-shard results.
package shard

import (
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
// entries. Exactly one goroutine may call the producer side (TryPush,
// Push) and exactly one the consumer side (TryPop, Pop); the two may
// differ. Both sides are wait-free while the ring is neither full nor
// empty and park on a wake channel otherwise, so an idle ring costs no
// CPU. The capacity is rounded up to a power of two.
//
// Memory ordering: the producer publishes buf[tail&mask] before its
// atomic tail store, and the consumer's atomic tail load therefore
// observes the element write (release/acquire pairing per the Go
// memory model); symmetrically for head on the reuse path.
type Ring struct {
	_    pad
	buf  []Entry
	mask uint64
	_    pad
	// head is the consumer cursor: the next index to pop.
	head atomic.Uint64
	// consumer parking state: the consumer sets consParked before
	// re-checking emptiness, and the producer hands it a token after
	// every push that observes the flag.
	consParked atomic.Bool
	consWake   chan struct{}
	_          pad
	// tail is the producer cursor: the next index to fill.
	tail atomic.Uint64
	// producer parking state, mirror-image of the consumer's.
	prodParked atomic.Bool
	prodWake   chan struct{}
	_          pad
}

// NewRing builds a ring with at least the given capacity (rounded up
// to a power of two, minimum 2).
func NewRing(capacity int) *Ring {
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

// TryPush appends e and reports success, failing when the ring is
// full. Producer side only.
func (r *Ring) TryPush(e Entry) bool {
	t := r.tail.Load()
	if t-r.head.Load() >= uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = e
	r.tail.Store(t + 1)
	if r.consParked.Load() {
		r.consParked.Store(false)
		select {
		case r.consWake <- struct{}{}:
		default:
		}
	}
	return true
}

// Push appends e, spinning briefly and then parking while the ring is
// full. Producer side only.
func (r *Ring) Push(e Entry) {
	for spins := 0; ; spins++ {
		if r.TryPush(e) {
			return
		}
		if spins < spinBudget {
			runtime.Gosched()
			continue
		}
		// Park: set the flag, then re-check fullness so a pop that
		// raced ahead of the flag store cannot strand us. A stale
		// token in prodWake only costs one spurious wakeup.
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

// TryPop removes and returns the oldest entry, reporting failure when
// the ring is empty. Consumer side only.
func (r *Ring) TryPop() (Entry, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return 0, false
	}
	e := r.buf[h&r.mask]
	r.head.Store(h + 1)
	if r.prodParked.Load() {
		r.prodParked.Store(false)
		select {
		case r.prodWake <- struct{}{}:
		default:
		}
	}
	return e, true
}

// Pop removes and returns the oldest entry, spinning briefly and then
// parking while the ring is empty. Consumer side only.
func (r *Ring) Pop() Entry {
	for spins := 0; ; spins++ {
		if e, ok := r.TryPop(); ok {
			return e
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
