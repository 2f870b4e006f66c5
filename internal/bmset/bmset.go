// Package bmset implements a bounded multiset of integer values in [1,k]
// backed by a multiplicity array and a two-level presence bitmap. It is
// the storage for value-model output queues, which the paper treats as
// priority queues: transmission pops the maximum value, push-out pops the
// minimum, and the MRD policy needs |Q| and the value sum of Q to compute
// |Q|/avg(Q).
//
// Bit v−1 of the presence bitmap is set iff v is present, and bit w of
// the summary is set iff presence word w is non-zero. Add and Remove are
// O(1): a multiplicity bump plus, when a bucket fills or empties, one bit
// in each level. Min and Max cache their result, maintained on every
// mutation, and only when the extreme bucket itself empties do they
// probe the bitmap: one bits.TrailingZeros64/LeadingZeros64 on the
// summary and one on the presence word, for any k ≤ 4096 (a single
// summary word); larger bounds scan summary words. This matters because
// the value-model push-out policies consult every queue's minimum on
// every congested state, the hottest query in the paper-scale sweeps.
package bmset

import (
	"fmt"
	"math/bits"
)

// Set is a multiset of values in [1,k]. The zero value is unusable; use
// New.
type Set struct {
	k       int
	mult    []int32  // multiplicities, 1-based
	present []uint64 // bit v−1 set iff mult[v] > 0
	summary []uint64 // bit w set iff present[w] != 0
	size    int
	total   int64 // sum of all elements

	// Cached extremes: valid only when the corresponding flag is set.
	// Maintained O(1) on Add and on removals that leave the extreme
	// bucket non-empty; recomputed lazily from the bitmap otherwise.
	minv, maxv   int
	minOK, maxOK bool
}

// New returns an empty multiset accepting values in [1,k].
func New(k int) *Set {
	if k < 1 {
		panic(fmt.Sprintf("bmset: bound k=%d must be >= 1", k))
	}
	words := (k + 63) / 64
	return &Set{
		k:       k,
		mult:    make([]int32, k+1),
		present: make([]uint64, words),
		summary: make([]uint64, (words+63)/64),
	}
}

// Len returns the number of stored elements (with multiplicity).
func (s *Set) Len() int { return s.size }

// Empty reports whether the set holds no elements.
func (s *Set) Empty() bool { return s.size == 0 }

// Sum returns the sum of all stored elements.
func (s *Set) Sum() int64 { return s.total }

// Add inserts one copy of v.
//
//smb:hotpath
func (s *Set) Add(v int) {
	//smb:alloc-ok panic on a violated invariant, unreachable in a correct simulator
	s.check(v)
	s.mult[v]++
	if s.mult[v] == 1 {
		b := v - 1
		s.present[b>>6] |= 1 << (b & 63)
		s.summary[b>>12] |= 1 << ((b >> 6) & 63)
	}
	s.size++
	s.total += int64(v)
	if s.size == 1 {
		s.minv, s.maxv = v, v
		s.minOK, s.maxOK = true, true
		return
	}
	if s.minOK && v < s.minv {
		s.minv = v
	}
	if s.maxOK && v > s.maxv {
		s.maxv = v
	}
}

// Remove deletes one copy of v. It panics if v is not present: removing an
// absent element indicates a simulator bug.
//
//smb:hotpath
func (s *Set) Remove(v int) {
	//smb:alloc-ok panic on a violated invariant, unreachable in a correct simulator
	s.check(v)
	if s.mult[v] == 0 {
		//smb:alloc-ok panic on a violated invariant, unreachable in a correct simulator
		panic(fmt.Sprintf("bmset: Remove(%d) not present", v))
	}
	s.remove(v)
}

// remove deletes one present copy of v, maintaining the bitmap and the
// cached extremes.
//
//smb:hotpath
func (s *Set) remove(v int) {
	s.mult[v]--
	s.size--
	s.total -= int64(v)
	if s.mult[v] > 0 {
		return // the bitmap and the extreme buckets are unchanged
	}
	b := v - 1
	w := b >> 6
	s.present[w] &^= 1 << (b & 63)
	if s.present[w] == 0 {
		s.summary[w>>6] &^= 1 << (w & 63)
	}
	if s.minOK && v == s.minv {
		s.minOK = false
	}
	if s.maxOK && v == s.maxv {
		s.maxOK = false
	}
}

// Min returns the smallest stored value. It panics on an empty set.
// O(1) for k ≤ 4096: the cached minimum is reused until its bucket
// empties, and a miss is two trailing-zero probes.
//
//smb:hotpath
func (s *Set) Min() int {
	if !s.minOK {
		s.probeMin()
	}
	return s.minv
}

// Max returns the largest stored value. It panics on an empty set.
// O(1) for k ≤ 4096, mirroring Min with leading-zero probes.
//
//smb:hotpath
func (s *Set) Max() int {
	if !s.maxOK {
		s.probeMax()
	}
	return s.maxv
}

// probeMin refills the cached minimum from the bitmap. An empty set
// never holds a valid cache (removing the last element empties the
// extreme buckets), so the empty check lives here, off the cache hit.
// It stays out of line: Min's cache hit inlines into its callers, and
// the cold panic stays in this body, where its alloc-ok applies.
//
//smb:hotpath
//go:noinline
func (s *Set) probeMin() {
	if s.size == 0 {
		//smb:alloc-ok panic on a violated invariant, unreachable in a correct simulator
		panic("bmset: Min on empty set")
	}
	si := 0
	for s.summary[si] == 0 {
		si++
	}
	w := si<<6 + bits.TrailingZeros64(s.summary[si])
	s.minv = w<<6 + bits.TrailingZeros64(s.present[w]) + 1
	s.minOK = true
}

// probeMax refills the cached maximum from the bitmap (see probeMin).
//
//smb:hotpath
//go:noinline
func (s *Set) probeMax() {
	if s.size == 0 {
		//smb:alloc-ok panic on a violated invariant, unreachable in a correct simulator
		panic("bmset: Max on empty set")
	}
	si := len(s.summary) - 1
	for s.summary[si] == 0 {
		si--
	}
	w := si<<6 + 63 - bits.LeadingZeros64(s.summary[si])
	s.maxv = w<<6 + 63 - bits.LeadingZeros64(s.present[w]) + 1
	s.maxOK = true
}

// PopMin removes and returns the smallest stored value.
//
//smb:hotpath
func (s *Set) PopMin() int {
	v := s.Min()
	s.remove(v)
	return v
}

// PopMax removes and returns the largest stored value.
//
//smb:hotpath
func (s *Set) PopMax() int {
	v := s.Max()
	s.remove(v)
	return v
}

// Clear removes all elements.
func (s *Set) Clear() {
	clear(s.mult)
	clear(s.present)
	clear(s.summary)
	s.size = 0
	s.total = 0
	s.minOK, s.maxOK = false, false
}

// Values returns all stored elements in ascending order (with
// multiplicity). Intended for tests and debugging; O(k + n).
func (s *Set) Values() []int {
	out := make([]int, 0, s.size)
	for v := 1; v <= s.k; v++ {
		for c := s.mult[v]; c > 0; c-- {
			out = append(out, v)
		}
	}
	return out
}

//smb:hotpath
func (s *Set) check(v int) {
	if v < 1 || v > s.k {
		//smb:alloc-ok panic on a violated invariant, unreachable in a correct simulator
		panic(fmt.Sprintf("bmset: value %d out of range [1,%d]", v, s.k))
	}
}
