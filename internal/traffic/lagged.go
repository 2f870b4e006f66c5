package traffic

import (
	"math"
	"math/rand"
)

// The shape of math/rand's seeded source: an additive lagged-Fibonacci
// register of lagLen words whose feed index runs lagFeed words ahead of
// its tap. Go 1 compatibility keeps rand.NewSource streams stable, so
// this copy stays bit-exact across toolchains.
const (
	lagLen  = 607
	lagTap  = 273
	lagFeed = lagLen - lagTap

	// redrawAt is the smallest Int63 value x for which
	// float64(x)/2⁶³ rounds to 1; (*rand.Rand).Float64 redraws those.
	redrawAt = 1<<63 - 512
)

// lagged reproduces the stream of rand.NewSource(seed) draw for draw
// without the rand.Source interface in the way. Its draw methods take
// the tap index as an argument and return it advanced, so a caller
// drawing many values in a row (MMPP.Next, once per slot) keeps the
// index in a register and stores it back to tap only when it is done.
// The exported methods implement rand.Source64 on the stored tap, which
// lets rand.New(r) serve the draws this type does not copy
// (NormFloat64).
type lagged struct {
	vec [lagLen]int64
	tap uint // the feed index is (tap + lagFeed) mod lagLen
}

// Seed implements rand.Source: it sets r to the state of
// rand.NewSource(seed). Draw k of a register seeded at tap 0 (k = 1 …
// lagLen) leaves the tap at lagLen−k and overwrites the feed word with
// the value it returns, and the feed visits every word once. So after
// lagLen draws the register holds exactly those draws with the tap back
// at 0, and undoing the additions from the last draw to the first
// recovers the seeded register.
func (r *lagged) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for t := lagLen - 1; t >= 0; t-- {
		r.vec[(t+lagFeed)%lagLen] = int64(src.Uint64())
	}
	for t := range lagLen {
		r.vec[(t+lagFeed)%lagLen] -= r.vec[t]
	}
	r.tap = 0
}

// Uint64 implements rand.Source64.
func (r *lagged) Uint64() uint64 {
	x, t := r.step(r.tap)
	r.tap = t
	return uint64(x)
}

// Int63 implements rand.Source.
func (r *lagged) Int63() int64 {
	x, t := r.int63(r.tap)
	r.tap = t
	return x
}

// step is one additive step from tap index t: the 64-bit draw and the
// new tap index. The register runs downwards; with unsigned indices
// the tap's wrap is one min, which also proves it in range.
func (r *lagged) step(t uint) (int64, uint) {
	t = min(t-1, lagLen-1)
	f := t + lagFeed
	if t >= lagTap {
		f = t - lagTap
	}
	x := r.vec[f] + r.vec[t]
	r.vec[f] = x
	return x, t
}

// int63 is (*rand.Rand).Int63 from tap index t.
func (r *lagged) int63(t uint) (int64, uint) {
	x, t := r.step(t)
	return x & math.MaxInt64, t
}

// kept is the next Int63 draw from tap index t that
// (*rand.Rand).Float64 keeps: it redraws the values that would round
// to 1.
func (r *lagged) kept(t uint) (int64, uint) {
	for {
		x, u := r.int63(t)
		if t = u; x < redrawAt {
			return x, t
		}
	}
}

// float64 is (*rand.Rand).Float64 from tap index t.
func (r *lagged) float64(t uint) (float64, uint) {
	x, t := r.kept(t)
	return float64(x) / (1 << 63), t
}

// lagThreshold is the smallest x in [0, redrawAt] for which
// float64(x)/2⁶³ < p is false, or redrawAt when it holds for every
// draw Float64 keeps. Float64 is monotone in its draw, so for every x
// below redrawAt, x < lagThreshold(p) exactly when float64(x)/2⁶³ < p.
// A NaN p gives 0: the comparison never holds.
func lagThreshold(p float64) int64 {
	lo, hi := int64(0), int64(redrawAt)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intn is (*rand.Rand).Intn from tap index t: a mask when n is a power
// of two, otherwise rejection of the draws above the largest multiple
// of n, on a 31-bit draw when n fits in an int32 (Int31n) and a 63-bit
// one when it does not (Int63n). n must be positive.
func (r *lagged) intn(t uint, n int) (int, uint) {
	if n > math.MaxInt32 {
		return r.int63n(t, int64(n))
	}
	var v int64
	if n&(n-1) == 0 {
		v, t = r.int63(t)
		return int(v>>32) & (n - 1), t
	}
	max := int32(math.MaxInt32 - (1<<31)%uint32(n))
	for {
		v, t = r.int63(t)
		if v31 := int32(v >> 32); v31 <= max {
			return int(v31 % int32(n)), t
		}
	}
}

// int63n is (*rand.Rand).Int63n from tap index t, for intn's n above
// math.MaxInt32.
func (r *lagged) int63n(t uint, n int64) (int, uint) {
	var v int64
	if n&(n-1) == 0 {
		v, t = r.int63(t)
		return int(v & (n - 1)), t
	}
	max := int64(math.MaxInt64 - (1<<63)%uint64(n))
	for {
		v, t = r.int63(t)
		if v <= max {
			return int(v % n), t
		}
	}
}

// normFloat64 is (*rand.Rand).NormFloat64 from tap index t. It is the
// one draw served through rand.Rand, so it stores t before and reloads
// it after.
func (r *lagged) normFloat64(t uint) (float64, uint) {
	r.tap = t
	x := rand.New(r).NormFloat64()
	return x, r.tap
}
