// Package hmath provides the small pieces of analytic machinery the
// paper's policies and bounds are phrased in: harmonic numbers and the
// Euler–Mascheroni constant.
package hmath

import "math"

// EulerGamma is the Euler–Mascheroni constant γ appearing in the BPD
// lower bound H_k >= ln k + γ (Theorem 5).
const EulerGamma = 0.57721566490153286060651209008240243

// harmonicTableSize bounds the precomputed H_n table. Covers every port
// count the simulator sweeps (and then some) so the NHDT/NHDTW admission
// hot path, which evaluates H_m per arriving packet, costs one array
// load instead of an O(n) summation.
const harmonicTableSize = 1 << 11

// harmonicTable[i] = H_i for i < harmonicTableSize. Each entry is the
// same backward summation as the slow path, so table lookups are
// bit-identical to the values Harmonic returned before the table
// existed (differential tests depend on this).
var harmonicTable = buildHarmonicTable()

// buildHarmonicTable sums eight consecutive entries side by side
// (harmonicTableSize is a multiple of eight).
// Entry b+j adds its own head 1/(b+j), …, 1/(b+1), then the eight
// chains share the tail 1/b, …, 1/1, each adding every term in the slow
// path's order, so each entry rounds exactly as its own backward
// summation would. The chains are independent, so the additions
// overlap instead of waiting on one another: a one-chain-per-entry
// build costs several milliseconds of every process start-up.
func buildHarmonicTable() [harmonicTableSize]float64 {
	var inv [harmonicTableSize]float64
	for i := 1; i < harmonicTableSize; i++ {
		inv[i] = 1 / float64(i)
	}
	var t [harmonicTableSize]float64
	for b := 0; b < harmonicTableSize; b += 8 {
		for j := 1; j < 8; j++ {
			for i := b + j; i > b; i-- {
				t[b+j] += inv[i]
			}
		}
		h0, h1, h2, h3 := t[b], t[b+1], t[b+2], t[b+3]
		h4, h5, h6, h7 := t[b+4], t[b+5], t[b+6], t[b+7]
		for i := b; i >= 1; i-- {
			x := inv[i]
			h0, h1, h2, h3 = h0+x, h1+x, h2+x, h3+x
			h4, h5, h6, h7 = h4+x, h5+x, h6+x, h7+x
		}
		t[b], t[b+1], t[b+2], t[b+3] = h0, h1, h2, h3
		t[b+4], t[b+5], t[b+6], t[b+7] = h4, h5, h6, h7
	}
	return t
}

// Harmonic returns H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0. Values are
// served from a precomputed table for small n (O(1), the admission-path
// case), computed by direct summation for mid-range n, and by the
// asymptotic expansion for large n; the switch points keep absolute
// error below 1e-12 and the function O(1) for huge n.
//
//smb:hotpath
func Harmonic(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n < harmonicTableSize {
		return harmonicTable[n]
	}
	if n <= 1<<16 {
		// Sum smallest terms first to bound floating-point error.
		var h float64
		for i := n; i >= 1; i-- {
			h += 1 / float64(i)
		}
		return h
	}
	// H_n ~ ln n + γ + 1/(2n) − 1/(12n²) + 1/(120n⁴)
	fn := float64(n)
	return math.Log(fn) + EulerGamma + 1/(2*fn) - 1/(12*fn*fn) + 1/(120*fn*fn*fn*fn)
}

// HarmonicRange returns 1/a + 1/(a+1) + ... + 1/b (zero when a > b), the
// β_{k,m}-style partial harmonic sums used in the LQD and NHDT lower
// bounds.
func HarmonicRange(a, b int) float64 {
	if a < 1 {
		a = 1
	}
	if a > b {
		return 0
	}
	var h float64
	for i := b; i >= a; i-- {
		h += 1 / float64(i)
	}
	return h
}

// InverseWorkSum returns Z = Σ 1/w over the given per-port works, the
// normalizer of the NHST thresholds.
func InverseWorkSum(works []int) float64 {
	var z float64
	for _, w := range works {
		z += 1 / float64(w)
	}
	return z
}
