package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"smbm/internal/pkt"
)

func TestEntryPacking(t *testing.T) {
	e := Arrival(123456, pkt.Packet{Port: 513, Work: 7, Value: 200})
	if e.IsControl() {
		t.Fatalf("arrival entry classified as control")
	}
	if e.Slot() != 123456 {
		t.Fatalf("slot = %d, want 123456", e.Slot())
	}
	p := e.Packet()
	if p.Port != 513 || p.Work != 7 || p.Value != 200 {
		t.Fatalf("packet = %+v, want {513 7 200}", p)
	}

	c := Control(OpDrain, 99)
	if !c.IsControl() {
		t.Fatalf("control entry not classified as control")
	}
	if c.Op() != OpDrain || c.Slot() != 99 {
		t.Fatalf("control = op %d slot %d, want op %d slot 99", c.Op(), c.Slot(), OpDrain)
	}
}

func TestRingSingleThreaded(t *testing.T) {
	r := NewRing(7) // rounds up to 8
	if r.Cap() != 8 {
		t.Fatalf("cap = %d, want 8", r.Cap())
	}
	var one [1]Entry
	if r.tryPop(one[:]) != 0 {
		t.Fatalf("pop from empty ring succeeded")
	}
	for i := 0; i < 8; i++ {
		if r.tryPush([]Entry{Entry(i)}) != 1 {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if r.tryPush([]Entry{99}) != 0 {
		t.Fatalf("push into full ring succeeded")
	}
	for i := 0; i < 8; i++ {
		ok := r.tryPop(one[:]) == 1
		if e := one[0]; !ok || e != Entry(i) {
			t.Fatalf("pop %d = %d ok=%v", i, e, ok)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("len = %d after draining", r.Len())
	}
}

// TestRingConcurrent streams entries through a deliberately tiny ring
// so both the full (producer parks) and empty (consumer parks) paths
// are exercised; run with -race it checks the SPSC publication fences.
func TestRingConcurrent(t *testing.T) {
	const total = 1 << 16
	r := NewRing(16)
	done := make(chan error, 1)
	go func() {
		var one [1]Entry
		for i := 0; i < total; i++ {
			r.PopBatch(one[:])
			if e := one[0]; e != Entry(i) {
				done <- fmt.Errorf("entry %d = %d", i, e)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < total; i++ {
		r.Push(Entry(i))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRingBatchConcurrent streams a long entry sequence through tiny
// rings (capacity 2 and 4) with batched pushes larger than the ring,
// single control words pushed one at a time between batches, and pops
// of varying width. Occasional pauses on either side let the other
// fill or drain the ring and park. The consumer checks FIFO order entry
// by entry, and the producer checks after every push that its cached
// head never lets the tail run more than a capacity ahead — the
// invariant whose violation overwrote unconsumed entries.
func TestRingBatchConcurrent(t *testing.T) {
	const total = 1 << 15
	want := func(i int) Entry {
		if i%7 == 6 {
			return Control(OpAdvance, int64(i))
		}
		return Arrival(int64(i), pkt.Packet{Port: i % 5, Work: 1 + i%3, Value: 1})
	}
	for _, capacity := range []int{2, 4} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			r := NewRing(capacity)
			done := make(chan error, 1)
			go func() {
				rng := rand.New(rand.NewSource(2))
				dst := make([]Entry, 2*capacity)
				for i := 0; i < total; {
					if rng.Intn(512) == 0 {
						time.Sleep(50 * time.Microsecond) // let the producer fill the ring and park
					}
					n := r.PopBatch(dst[:1+rng.Intn(len(dst))])
					for _, e := range dst[:n] {
						if e != want(i) {
							done <- fmt.Errorf("entry %d = %#x, want %#x", i, e, want(i))
							return
						}
						i++
					}
				}
				done <- nil
			}()
			rng := rand.New(rand.NewSource(1))
			var batch []Entry
			for i := 0; i < total; {
				if rng.Intn(512) == 0 {
					time.Sleep(50 * time.Microsecond) // let the consumer drain the ring and park
				}
				if want(i).IsControl() {
					r.Push(want(i))
					i++
				} else {
					batch = batch[:0]
					for n := 1 + rng.Intn(3*capacity); n > 0 && i < total && !want(i).IsControl(); n-- {
						batch = append(batch, want(i))
						i++
					}
					r.PushBatch(batch)
				}
				if d := r.tail.Load() - r.headCache; d > uint64(r.Cap()) {
					t.Fatalf("tail runs %d entries ahead of the cached head in a ring of %d", d, r.Cap())
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRingParking drives both parking paths deterministically: a
// consumer parked on an empty ring is woken by a batch push, and a
// producer parked on a full ring with a batch larger than the capacity
// is woken by pops and completes the batch in order.
func TestRingParking(t *testing.T) {
	r := NewRing(2)
	waitFor := func(flag *atomic.Bool) {
		for !flag.Load() {
			runtime.Gosched()
		}
	}

	got := make(chan []Entry, 1)
	go func() {
		dst := make([]Entry, 4)
		n := r.PopBatch(dst)
		got <- dst[:n]
	}()
	waitFor(&r.consParked)
	r.PushBatch([]Entry{10, 11})
	if es := <-got; !slices.Equal(es, []Entry{10, 11}) {
		t.Fatalf("woken consumer popped %v, want [10 11]", es)
	}

	r.PushBatch([]Entry{0, 1}) // full
	pushed := make(chan struct{})
	go func() {
		r.PushBatch([]Entry{2, 3, 4, 5, 6})
		close(pushed)
	}()
	waitFor(&r.prodParked)
	var one [1]Entry
	for i := 0; i < 7; i++ {
		if r.PopBatch(one[:]); one[0] != Entry(i) {
			t.Fatalf("pop %d = %d", i, one[0])
		}
	}
	<-pushed
	if r.Len() != 0 {
		t.Fatalf("len = %d after draining", r.Len())
	}
}
