package bmset

import (
	"math/rand"
	"testing"
)

// naiveSet is the O(k)-scan bucket implementation the bitmap version
// replaces; kept here as the ablation baseline.
type naiveSet struct {
	count []int
	size  int
	total int64
}

func newNaive(k int) *naiveSet { return &naiveSet{count: make([]int, k+1)} }

func (s *naiveSet) Add(v int) { s.count[v]++; s.size++; s.total += int64(v) }

func (s *naiveSet) PopMin() int {
	for v := 1; v < len(s.count); v++ {
		if s.count[v] > 0 {
			s.count[v]--
			s.size--
			s.total -= int64(v)
			return v
		}
	}
	panic("empty")
}

func (s *naiveSet) PopMax() int {
	for v := len(s.count) - 1; v >= 1; v-- {
		if s.count[v] > 0 {
			s.count[v]--
			s.size--
			s.total -= int64(v)
			return v
		}
	}
	panic("empty")
}

// opsMix drives a queue-like workload: mostly adds and max-pops with
// occasional min-pops (push-outs).
func opsMix(b *testing.B, add func(int), popMin, popMax func() int, size func() int, k int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch {
		case size() == 0 || i%3 == 0:
			add(1 + rng.Intn(k))
		case i%7 == 0:
			popMin()
		default:
			popMax()
		}
	}
}

func BenchmarkSetK64(b *testing.B) {
	s := New(64)
	opsMix(b, s.Add, s.PopMin, s.PopMax, s.Len, 64)
}

func BenchmarkNaiveSetK64(b *testing.B) {
	s := newNaive(64)
	opsMix(b, s.Add, s.PopMin, s.PopMax, func() int { return s.size }, 64)
}

func BenchmarkSetK1024(b *testing.B) {
	s := New(1024)
	opsMix(b, s.Add, s.PopMin, s.PopMax, s.Len, 1024)
}

func BenchmarkNaiveSetK1024(b *testing.B) {
	s := newNaive(1024)
	opsMix(b, s.Add, s.PopMin, s.PopMax, func() int { return s.size }, 1024)
}
