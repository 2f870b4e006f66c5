package deque

import "testing"

// TestShrinkReleasesBurstCapacity asserts the memory bound that matters
// for multi-hour sweeps: after a burst drains, the backing array comes
// back down instead of pinning peak-burst capacity forever.
func TestShrinkReleasesBurstCapacity(t *testing.T) {
	var d Deque
	for i := int64(0); i < 1<<14; i++ {
		d.PushBack(i)
	}
	peak := d.Cap()
	if peak < 1<<14 {
		t.Fatalf("Cap() = %d after %d pushes", peak, 1<<14)
	}
	for !d.Empty() {
		d.PopFront()
	}
	if got := d.Cap(); got != minCapacity {
		t.Errorf("Cap() = %d after full drain, want %d (peak was %d)", got, minCapacity, peak)
	}
	// The deque is still usable after shrinking all the way down.
	d.PushBack(42)
	if got := d.PopFront(); got != 42 {
		t.Errorf("PopFront() = %d after shrink cycle, want 42", got)
	}
}

// TestShrinkHysteresis pins the explicit hysteresis contract: grow fires
// only at full, shrink only at quarter-full, so an alternating
// push/pop sequence at a fixed size never resizes.
func TestShrinkHysteresis(t *testing.T) {
	var d Deque
	for i := int64(0); i < 100; i++ {
		d.PushBack(i)
	}
	capAt100 := d.Cap() // 128
	// Pop down to just above the quarter-full threshold: no shrink yet.
	for d.Len() > capAt100/4+1 {
		d.PopFront()
	}
	if got := d.Cap(); got != capAt100 {
		t.Fatalf("Cap() = %d above quarter-full, want unchanged %d", got, capAt100)
	}
	// Alternating push/pop at this size must not thrash resizes.
	for i := 0; i < 1000; i++ {
		d.PushBack(int64(i))
		d.PopFront()
		if got := d.Cap(); got != capAt100 {
			t.Fatalf("Cap() = %d during alternation, want stable %d", got, capAt100)
		}
	}
	// Crossing the quarter-full threshold halves exactly once.
	d.PopFront()
	d.PopFront()
	if got := d.Cap(); got != capAt100/2 {
		t.Errorf("Cap() = %d after crossing quarter-full, want %d", got, capAt100/2)
	}
}

// TestClearReleasesLargeBuffer asserts Clear drops a beyond-threshold
// backing array instead of retaining it.
func TestClearReleasesLargeBuffer(t *testing.T) {
	var d Deque
	// Rotating every seventh step exercises the wrapped layout too.
	for i := int64(0); i < 4*clearRetainLimit; i++ {
		d.PushBack(i)
		if i%7 == 0 {
			d.PushBack(d.PopFront())
		}
	}
	if d.Cap() <= clearRetainLimit {
		t.Fatalf("Cap() = %d, want > %d", d.Cap(), clearRetainLimit)
	}
	d.Clear()
	if got := d.Cap(); got != 0 {
		t.Errorf("Cap() = %d after Clear of oversized buffer, want 0 (released)", got)
	}
	if !d.Empty() {
		t.Error("deque not empty after Clear")
	}
	d.PushBack(7)
	if got := d.PopFront(); got != 7 {
		t.Errorf("PopFront() = %d after Clear, want 7", got)
	}
}

// TestClearRetainsSmallBuffer asserts Clear keeps a modest buffer for
// reuse (the common steady-state case).
func TestClearRetainsSmallBuffer(t *testing.T) {
	var d Deque
	for i := int64(0); i < 100; i++ {
		d.PushBack(i)
	}
	capBefore := d.Cap()
	d.Clear()
	if got := d.Cap(); got != capBefore {
		t.Errorf("Cap() = %d after Clear of small buffer, want retained %d", got, capBefore)
	}
}

// TestReservePinsCapacity asserts Reserve pre-sizes the buffer, that no
// later operation allocates below the floor, and that Clear keeps the
// reservation.
func TestReservePinsCapacity(t *testing.T) {
	var d Deque
	d.Reserve(300)
	if got := d.Cap(); got != 512 {
		t.Fatalf("Cap() = %d after Reserve(300), want 512", got)
	}
	if got := d.reserved; got != 300 {
		t.Fatalf("reserved = %d, want 300", got)
	}
	for i := int64(0); i < 300; i++ {
		d.PushBack(i)
	}
	for !d.Empty() {
		d.PopFront() // shrink must not cross the floor
	}
	if got := d.Cap(); got != 512 {
		t.Errorf("Cap() = %d after drain of reserved deque, want 512", got)
	}
	d.Clear()
	if got := d.Cap(); got != 512 {
		t.Errorf("Cap() = %d after Clear of reserved deque, want 512", got)
	}
	// FIFO order survives a reservation resize mid-stream.
	d.PushBack(1)
	d.Reserve(2000)
	d.PushBack(2)
	if a, b := d.PopFront(), d.PopFront(); a != 1 || b != 2 {
		t.Errorf("popped (%d, %d) after mid-stream Reserve, want (1, 2)", a, b)
	}
}

// TestReserveZeroAllocSteadyState asserts the engine-facing guarantee:
// once reserved to the worst case, pushes and pops never allocate.
func TestReserveZeroAllocSteadyState(t *testing.T) {
	var d Deque
	d.Reserve(256)
	allocs := testing.AllocsPerRun(100, func() {
		for i := int64(0); i < 256; i++ {
			d.PushBack(i)
		}
		for !d.Empty() {
			d.PopFront()
		}
	})
	if allocs != 0 {
		t.Errorf("reserved deque allocated %.1f times per fill/drain cycle, want 0", allocs)
	}
}
