package bmset

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestEmptySet(t *testing.T) {
	s := New(10)
	if !s.Empty() || s.Len() != 0 || s.Sum() != 0 {
		t.Errorf("fresh set: Empty=%v Len=%d Sum=%d", s.Empty(), s.Len(), s.Sum())
	}
	if got := s.Values(); len(got) != 0 {
		t.Errorf("Values() on empty = %v, want []", got)
	}
}

func TestAddRemoveCounts(t *testing.T) {
	s := New(5)
	s.Add(3)
	s.Add(3)
	s.Add(1)
	if got := s.Values(); !slices.Equal(got, []int{1, 3, 3}) {
		t.Errorf("Values() = %v, want [1 3 3]", got)
	}
	if got := s.Len(); got != 3 {
		t.Errorf("Len() = %d, want 3", got)
	}
	if got := s.Sum(); got != 7 {
		t.Errorf("Sum() = %d, want 7", got)
	}
	s.Remove(3)
	if got := s.Values(); !slices.Equal(got, []int{1, 3}) {
		t.Errorf("after Remove: Values() = %v, want [1 3]", got)
	}
	if got := s.Sum(); got != 4 {
		t.Errorf("after Remove: Sum() = %d, want 4", got)
	}
}

func TestMinMaxPop(t *testing.T) {
	s := New(9)
	for _, v := range []int{5, 2, 9, 2, 7} {
		s.Add(v)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("Min() = %d, want 2", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max() = %d, want 9", got)
	}
	if got := s.PopMin(); got != 2 {
		t.Errorf("PopMin() = %d, want 2", got)
	}
	if got := s.PopMin(); got != 2 {
		t.Errorf("second PopMin() = %d, want 2", got)
	}
	if got := s.PopMax(); got != 9 {
		t.Errorf("PopMax() = %d, want 9", got)
	}
	if got := s.Values(); len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Errorf("Values() = %v, want [5 7]", got)
	}
}

func TestClearReuse(t *testing.T) {
	s := New(4)
	s.Add(2)
	s.Add(4)
	s.Clear()
	if !s.Empty() || s.Sum() != 0 {
		t.Errorf("after Clear: Empty=%v Sum=%d", s.Empty(), s.Sum())
	}
	s.Add(1)
	if got := s.Min(); got != 1 {
		t.Errorf("Min() after Clear+Add = %d, want 1", got)
	}
}

func TestPanics(t *testing.T) {
	for name, op := range map[string]func(*Set){
		"Add out of range": func(s *Set) { s.Add(11) },
		"Add zero":         func(s *Set) { s.Add(0) },
		"Remove absent":    func(s *Set) { s.Remove(5) },
		"Min empty":        func(s *Set) { s.Min() },
		"Max empty":        func(s *Set) { s.Max() },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			op(New(10))
		})
	}
}

// reference is a naive multiset used to validate Set under random ops.
type reference struct{ vals []int }

func (r *reference) add(v int) { r.vals = append(r.vals, v); sort.Ints(r.vals) }
func (r *reference) popMin() int {
	v := r.vals[0]
	r.vals = r.vals[1:]
	return v
}
func (r *reference) popMax() int {
	v := r.vals[len(r.vals)-1]
	r.vals = r.vals[:len(r.vals)-1]
	return v
}
func (r *reference) sum() int64 {
	var t int64
	for _, v := range r.vals {
		t += int64(v)
	}
	return t
}

// edgeValue draws a value in [1,k] that sits on or next to a presence
// word (64-value) or summary word (4096-value) boundary, so buckets at
// the bitmap's edges empty and refill often.
func edgeValue(rng *rand.Rand, k int) int {
	edge := 64
	if k > 4096 && rng.Intn(2) == 0 {
		edge = 4096
	}
	v := edge*rng.Intn(k/edge+1) + rng.Intn(3) - 1
	return min(max(v, 1), k)
}

// TestQuickMatchesReference compares the bitmap implementation with the
// naive reference over random operation sequences, at a small bound and
// at every presence-word and summary-word boundary.
func TestQuickMatchesReference(t *testing.T) {
	for _, k := range []int{12, 1, 63, 64, 65, 4095, 4096, 4097, 5000} {
		f := func(ops []uint8, seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			s := New(k)
			var ref reference
			for _, op := range ops {
				switch op % 5 {
				case 0: // bias toward Add so the set grows
					v := 1 + rng.Intn(k)
					s.Add(v)
					ref.add(v)
				case 1:
					v := edgeValue(rng, k)
					s.Add(v)
					ref.add(v)
				case 2:
					if len(ref.vals) == 0 {
						continue
					}
					if s.PopMin() != ref.popMin() {
						return false
					}
				case 3:
					if len(ref.vals) == 0 {
						continue
					}
					if s.PopMax() != ref.popMax() {
						return false
					}
				case 4:
					if len(ref.vals) == 0 {
						continue
					}
					i := rng.Intn(len(ref.vals))
					s.Remove(ref.vals[i])
					ref.vals = slices.Delete(ref.vals, i, i+1)
				}
				if s.Len() != len(ref.vals) || s.Sum() != ref.sum() {
					return false
				}
				if len(ref.vals) > 0 && (s.Min() != ref.vals[0] || s.Max() != ref.vals[len(ref.vals)-1]) {
					return false
				}
			}
			return slices.Equal(s.Values(), ref.vals)
		}
		if err := quick.Check(f, qcfg(150)); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

// TestWordEdgeRefill empties the minimum and the maximum bucket on
// either side of a presence-word edge (64|65) and a summary-word edge
// (4096|4097), then refills them, so the cache-miss probes must step
// across each edge and back.
func TestWordEdgeRefill(t *testing.T) {
	for _, edge := range []int{64, 4096} {
		s := New(5000)
		lo, hi := edge, edge+1
		s.Add(lo)
		s.Add(hi)
		if got := s.PopMin(); got != lo {
			t.Fatalf("edge %d: PopMin = %d, want %d", edge, got, lo)
		}
		if got := s.Min(); got != hi {
			t.Fatalf("edge %d: Min after emptying %d = %d, want %d", edge, lo, got, hi)
		}
		s.Add(lo)
		if got := s.PopMax(); got != hi {
			t.Fatalf("edge %d: PopMax = %d, want %d", edge, got, hi)
		}
		if got := s.Max(); got != lo {
			t.Fatalf("edge %d: Max after emptying %d = %d, want %d", edge, hi, got, lo)
		}
		s.Add(hi)
		s.Remove(lo)
		if got, want := s.Min(), hi; got != want {
			t.Fatalf("edge %d: Min after Remove(%d) = %d, want %d", edge, lo, got, want)
		}
		s.Add(lo)
		s.Remove(hi)
		if got, want := s.Max(), lo; got != want {
			t.Fatalf("edge %d: Max after Remove(%d) = %d, want %d", edge, hi, got, want)
		}
	}
}

// TestLargeBoundOrder drains a set whose bound spans two summary words,
// alternately from each end, through the summary-word scan.
func TestLargeBoundOrder(t *testing.T) {
	const k = 9000
	s := New(k)
	var want []int
	for v := 1; v <= k; v += 97 {
		s.Add(v)
		want = append(want, v)
	}
	for len(want) > 0 {
		if got := s.PopMin(); got != want[0] {
			t.Fatalf("PopMin = %d, want %d", got, want[0])
		}
		want = want[1:]
		if len(want) == 0 {
			break
		}
		if got := s.PopMax(); got != want[len(want)-1] {
			t.Fatalf("PopMax = %d, want %d", got, want[len(want)-1])
		}
		want = want[:len(want)-1]
	}
	if !s.Empty() {
		t.Fatalf("Len = %d after draining", s.Len())
	}
}

// qcfg returns a deterministic quick.Config so property tests are
// reproducible run to run.
func qcfg(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(7))}
}
