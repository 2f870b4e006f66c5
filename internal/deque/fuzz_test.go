package deque

import (
	"testing"
)

// refDeque is the obviously correct reference model: a plain slice with
// the front at index 0.
type refDeque []int64

func (r *refDeque) pushBack(v int64) { *r = append(*r, v) }
func (r *refDeque) popFront() int64  { v := (*r)[0]; *r = (*r)[1:]; return v }
func (r *refDeque) popBack() int64   { v := (*r)[len(*r)-1]; *r = (*r)[:len(*r)-1]; return v }

// FuzzDequeVsSlice interprets the fuzz input as a program over the deque
// and replays it against the slice model, checking full observable state
// after every operation, plus the capacity-management contracts (power-of
// -two capacity, reserve floor, shrink hysteresis, Clear release bound).
//
// Opcode (b % 8): 0 PushBack, 1 rotate (PopFront then PushBack),
// 2 PopFront, 3 PopBack,
// 4 Clear, 5 Reserve(b/8), 6 At(b/8 mod len), 7 Front/Back probe. The
// pushed value is the running operation index, so order bugs surface as
// value mismatches.
func FuzzDequeVsSlice(f *testing.F) {
	f.Add([]byte{0, 0, 8, 1, 3, 2, 0, 0})                               // pushes, reserve, pops
	f.Add([]byte{0, 0, 0, 0, 4, 0, 2, 2})                               // clear mid-stream
	f.Add([]byte{5 + 8*31, 0, 0, 2, 2, 4})                              // big reserve then clear
	f.Add([]byte{1, 1, 1, 7, 3, 3, 6})                                  // front-loaded
	f.Add([]byte{0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 4, 5 + 8*3, 0, 0, 6, 7}) // mixed
	f.Fuzz(func(t *testing.T, program []byte) {
		var d Deque
		var ref refDeque
		for step, b := range program {
			op, arg := int(b%8), int(b/8)
			switch op {
			case 0:
				d.PushBack(int64(step))
				ref.pushBack(int64(step))
			case 1:
				if len(ref) == 0 {
					continue
				}
				v := ref.popFront()
				if got := d.PopFront(); got != v {
					t.Fatalf("step %d: rotate PopFront = %d, want %d", step, got, v)
				}
				d.PushBack(v)
				ref.pushBack(v)
			case 2:
				if len(ref) == 0 {
					continue
				}
				if got, want := d.PopFront(), ref.popFront(); got != want {
					t.Fatalf("step %d: PopFront = %d, want %d", step, got, want)
				}
			case 3:
				if len(ref) == 0 {
					continue
				}
				if got, want := d.PopBack(), ref.popBack(); got != want {
					t.Fatalf("step %d: PopBack = %d, want %d", step, got, want)
				}
			case 4:
				d.Clear()
				ref = ref[:0]
				// Clear must respect the release bound: capacity retained
				// beyond max(reserve floor, clearRetainLimit) is a leak.
				limit := d.floor()
				if limit < clearRetainLimit {
					limit = clearRetainLimit
				}
				if d.Cap() > limit {
					t.Fatalf("step %d: Clear retained cap %d > limit %d", step, d.Cap(), limit)
				}
			case 5:
				d.Reserve(arg)
				if d.reserved != arg {
					t.Fatalf("step %d: reserved = %d, want %d", step, d.reserved, arg)
				}
				if arg > 0 && d.Cap() < arg {
					t.Fatalf("step %d: Reserve(%d) left cap %d", step, arg, d.Cap())
				}
			case 6:
				if len(ref) == 0 {
					continue
				}
				i := arg % len(ref)
				if got, want := d.At(i), ref[i]; got != want {
					t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, want)
				}
			case 7:
				if len(ref) == 0 {
					continue
				}
				if got, want := d.Front(), ref[0]; got != want {
					t.Fatalf("step %d: Front = %d, want %d", step, got, want)
				}
				if got, want := d.Back(), ref[len(ref)-1]; got != want {
					t.Fatalf("step %d: Back = %d, want %d", step, got, want)
				}
			}
			// Invariants after every operation.
			if d.Len() != len(ref) {
				t.Fatalf("step %d: Len = %d, want %d", step, d.Len(), len(ref))
			}
			if d.Empty() != (len(ref) == 0) {
				t.Fatalf("step %d: Empty = %v with %d elements", step, d.Empty(), len(ref))
			}
			if c := d.Cap(); c != 0 && c&(c-1) != 0 {
				t.Fatalf("step %d: cap %d not a power of two", step, c)
			}
			if d.Cap() < d.Len() {
				t.Fatalf("step %d: cap %d < len %d", step, d.Cap(), d.Len())
			}
			if d.reserved > minCapacity && d.Cap() < d.floor() && d.Cap() != 0 {
				t.Fatalf("step %d: cap %d below reserve floor %d", step, d.Cap(), d.floor())
			}
		}
		// Final deep equality via At.
		for i, want := range ref {
			if got := d.At(i); got != want {
				t.Fatalf("final At(%d) = %d, want %d", i, got, want)
			}
		}
	})
}
