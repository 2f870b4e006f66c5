package bmset

import (
	"slices"
	"sort"
	"testing"
)

// refMultiset is the obviously correct reference model: a sorted slice.
type refMultiset []int

func (r *refMultiset) add(v int) {
	i := sort.SearchInts(*r, v)
	*r = append(*r, 0)
	copy((*r)[i+1:], (*r)[i:])
	(*r)[i] = v
}

func (r *refMultiset) removeAt(i int) int {
	v := (*r)[i]
	*r = append((*r)[:i], (*r)[i+1:]...)
	return v
}

func (r refMultiset) sum() int64 {
	var t int64
	for _, v := range r {
		t += int64(v)
	}
	return t
}

// fuzzEdges are the bounds past 16 a fuzz program may pick: both sides
// of the presence-word (64) and summary-word (4096) boundaries.
var fuzzEdges = []int{63, 64, 65, 128, 4095, 4096, 4097, 5000}

// FuzzSetVsSortedSlice interprets the fuzz input as a program over the
// multiset and replays it against a sorted-slice model, cross-checking
// the full observable state (Values, Min, Max, Len, Sum) after every
// operation — including the cached-extreme paths (Min/Max validity
// across Add/Remove/Pop churn) and the bitmap probes behind them.
//
// The first byte picks the bound: b % 24 below 16 gives k in [1,16],
// the rest index fuzzEdges. Each following byte is an operation:
// op = b % 8 (0-1 Add from the bottom, 2 PopMin, 3 PopMax, 4 Remove,
// 5-6 Add from the top, 7 Clear), with the value/rank derived from b / 8.
func FuzzSetVsSortedSlice(f *testing.F) {
	f.Add([]byte{4, 0, 8, 16, 2, 3, 0, 5, 6})              // add/pop churn, k=5
	f.Add([]byte{0, 0, 0, 0, 2, 2})                        // k=1 degenerate
	f.Add([]byte{15, 0, 9, 17, 25, 33, 4, 4, 3, 2, 7, 0})  // removes then clear
	f.Add([]byte{7, 1, 9, 17, 25, 5, 13, 21, 6, 14, 22})   // both ends
	f.Add([]byte{11, 0, 8, 3, 0, 8, 2, 0, 8, 4, 12, 5, 6}) // extreme-cache churn
	f.Add([]byte{18, 0, 5, 2, 3, 0, 2, 5, 3})              // k=65 word edge
	f.Add([]byte{21, 1, 253, 2, 3, 6, 246, 2, 3})          // k=4097 summary edge
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			return
		}
		k := int(program[0] % 24)
		if k < 16 {
			k++
		} else {
			k = fuzzEdges[k-16]
		}
		s := New(k)
		var ref refMultiset
		for step, b := range program[1:] {
			op, arg := int(b%8), int(b/8)
			switch op {
			case 0, 1:
				v := arg%k + 1
				s.Add(v)
				ref.add(v)
			case 2:
				if len(ref) == 0 {
					continue
				}
				if got, want := s.PopMin(), ref.removeAt(0); got != want {
					t.Fatalf("step %d: PopMin = %d, want %d", step, got, want)
				}
			case 3:
				if len(ref) == 0 {
					continue
				}
				if got, want := s.PopMax(), ref.removeAt(len(ref)-1); got != want {
					t.Fatalf("step %d: PopMax = %d, want %d", step, got, want)
				}
			case 4:
				if len(ref) == 0 {
					continue
				}
				v := ref[arg%len(ref)] // always present
				s.Remove(v)
				ref.removeAt(sort.SearchInts(ref, v))
			case 5, 6:
				v := k - arg%k
				s.Add(v)
				ref.add(v)
			case 7:
				s.Clear()
				ref = ref[:0]
			}
			// Full observable state after every operation.
			if s.Len() != len(ref) {
				t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(ref))
			}
			if s.Empty() != (len(ref) == 0) {
				t.Fatalf("step %d: Empty = %v with %d elements", step, s.Empty(), len(ref))
			}
			if got, want := s.Sum(), ref.sum(); got != want {
				t.Fatalf("step %d: Sum = %d, want %d", step, got, want)
			}
			if len(ref) > 0 {
				if got, want := s.Min(), ref[0]; got != want {
					t.Fatalf("step %d: Min = %d, want %d", step, got, want)
				}
				if got, want := s.Max(), ref[len(ref)-1]; got != want {
					t.Fatalf("step %d: Max = %d, want %d", step, got, want)
				}
			}
			if vals := s.Values(); !slices.Equal(vals, ref) {
				t.Fatalf("step %d: Values = %v, want %v", step, vals, ref)
			}
		}
	})
}
