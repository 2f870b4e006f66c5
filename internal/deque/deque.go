// Package deque implements a growable ring-buffer double-ended queue of
// ints. It backs the FIFO output queues of the processing-model switch,
// where per-packet state reduces to the arrival slot (used for latency
// accounting): all packets admitted to a queue share the queue's work
// requirement, so the queue itself only needs order, not payload.
//
// All operations are O(1) amortized. The zero value is an empty deque
// ready for use.
//
// # Capacity management
//
// The buffer grows by doubling and shrinks by halving with explicit
// hysteresis: a grow happens only when the deque is full, a shrink only
// when it is at most a quarter full, so at least cap/4 operations
// separate two opposite resizes and resize cost stays O(1) amortized.
//
// Two knobs bound memory behaviour for long-running simulations:
//
//   - Reserve pre-sizes the buffer and pins a floor under the shrink
//     hysteresis, so a queue sized for its worst case (e.g. the shared
//     buffer bound B) never allocates again on the hot path;
//   - Clear releases the backing array outright when its capacity
//     exceeds both the reserved floor and clearRetainLimit, so one
//     bursty queue cannot pin peak-burst memory for the rest of a
//     multi-hour sweep.
package deque

// Deque is a double-ended queue of int64 values backed by a ring buffer.
type Deque struct {
	buf      []int64
	head     int // index of front element
	count    int
	reserved int // capacity floor set by Reserve (0 = none)
	resFloor int // ceilPow2(reserved) cached for the hot shrink check
}

const (
	// minCapacity is the smallest non-empty buffer ever allocated.
	minCapacity = 8
	// clearRetainLimit bounds the capacity Clear retains for an
	// unreserved deque: a buffer larger than this is released so a past
	// burst does not pin memory forever. Reserve raises the bound.
	clearRetainLimit = 1024
)

// Len returns the number of elements.
func (d *Deque) Len() int { return d.count }

// Empty reports whether the deque holds no elements.
func (d *Deque) Empty() bool { return d.count == 0 }

// Cap returns the current capacity of the backing array.
func (d *Deque) Cap() int { return len(d.buf) }

// Reserve grows the backing array to hold at least n elements and pins
// that capacity as a floor: neither shrink nor Clear ever drops the
// buffer below it. Reserving the worst-case queue length up front makes
// every subsequent push allocation-free. A smaller n than a previous
// reservation lowers the floor but never discards the current buffer.
func (d *Deque) Reserve(n int) {
	if n < 0 {
		n = 0
	}
	d.reserved = n
	if n > minCapacity {
		d.resFloor = ceilPow2(n)
	} else {
		d.resFloor = 0
	}
	if n > len(d.buf) {
		d.resize(ceilPow2(n))
	}
}

// floor returns the smallest capacity shrink and Clear may leave behind.
// It is consulted on every pop (via shrink), so the power-of-two rounding
// is precomputed in Reserve rather than recomputed here.
func (d *Deque) floor() int {
	if d.resFloor > 0 {
		return d.resFloor
	}
	return minCapacity
}

// PushBack appends v at the back.
//
//smb:hotpath
func (d *Deque) PushBack(v int64) {
	d.grow()
	d.buf[d.index(d.count)] = v
	d.count++
}

// PopFront removes and returns the front element. It panics on an empty
// deque: popping an empty queue is a programming error in the simulator,
// not a recoverable condition.
//
//smb:hotpath
func (d *Deque) PopFront() int64 {
	if d.count == 0 {
		//smb:alloc-ok panic on a violated invariant, unreachable in a correct simulator
		panic("deque: PopFront on empty deque")
	}
	v := d.buf[d.head]
	d.head = d.index(1)
	d.count--
	d.shrink()
	return v
}

// PopBack removes and returns the back element. It panics on an empty
// deque.
//
//smb:hotpath
func (d *Deque) PopBack() int64 {
	if d.count == 0 {
		//smb:alloc-ok panic on a violated invariant, unreachable in a correct simulator
		panic("deque: PopBack on empty deque")
	}
	d.count--
	v := d.buf[d.index(d.count)]
	d.shrink()
	return v
}

// Front returns the front element without removing it.
//
//smb:hotpath
func (d *Deque) Front() int64 {
	if d.count == 0 {
		//smb:alloc-ok panic on a violated invariant, unreachable in a correct simulator
		panic("deque: Front on empty deque")
	}
	return d.buf[d.head]
}

// Back returns the back element without removing it.
//
//smb:hotpath
func (d *Deque) Back() int64 {
	if d.count == 0 {
		//smb:alloc-ok panic on a violated invariant, unreachable in a correct simulator
		panic("deque: Back on empty deque")
	}
	return d.buf[d.index(d.count-1)]
}

// At returns the i-th element from the front, 0-based.
func (d *Deque) At(i int) int64 {
	if i < 0 || i >= d.count {
		panic("deque: At index out of range")
	}
	return d.buf[d.index(i)]
}

// Clear removes all elements. Capacity up to max(reserved, 1024) is
// retained for reuse; anything larger — the residue of a past burst — is
// released to the allocator so a single spike cannot pin peak memory for
// the remainder of a long run.
func (d *Deque) Clear() {
	d.head = 0
	d.count = 0
	limit := d.floor()
	if limit < clearRetainLimit {
		limit = clearRetainLimit
	}
	if len(d.buf) > limit {
		d.buf = nil
		if d.reserved > 0 {
			d.resize(ceilPow2(d.reserved))
		}
	}
}

// index maps a logical offset from the head to a physical buffer index.
func (d *Deque) index(off int) int {
	if len(d.buf) == 0 {
		return 0
	}
	return (d.head + off) & (len(d.buf) - 1)
}

// grow ensures room for one more element. Capacity is always a power of
// two so index() can mask instead of mod.
//
//smb:hotpath
func (d *Deque) grow() {
	if d.count < len(d.buf) {
		return
	}
	next := len(d.buf) * 2
	if next < minCapacity {
		next = minCapacity
	}
	if f := d.floor(); next < f {
		next = f
	}
	//smb:alloc-ok amortized ring growth, preallocated via Reserve in steady state
	d.resize(next)
}

// shrink halves the buffer when it is at most a quarter full, bounding
// memory after bursts drain. The quarter-full trigger (grow fires at
// full, shrink at 1/4) is the hysteresis that keeps alternating
// push/pop sequences from thrashing between resizes; the floor from
// Reserve (or minCapacity) is never crossed.
//
//smb:hotpath
func (d *Deque) shrink() {
	if len(d.buf) > d.floor() && d.count <= len(d.buf)/4 {
		//smb:alloc-ok amortized ring shrink after a burst drains, not the steady state
		d.resize(len(d.buf) / 2)
	}
}

func (d *Deque) resize(capacity int) {
	buf := make([]int64, capacity)
	for i := 0; i < d.count; i++ {
		buf[i] = d.buf[d.index(i)]
	}
	d.buf = buf
	d.head = 0
}

// ceilPow2 returns the smallest power of two >= n (minimum minCapacity).
func ceilPow2(n int) int {
	c := minCapacity
	for c < n {
		c *= 2
	}
	return c
}
