// Package metrics provides numerically stable streaming statistics for
// aggregating competitive ratios across seeds and parameter sweeps.
package metrics

import "math"

// Welford accumulates mean and variance in one pass using Welford's
// algorithm. The zero value is an empty accumulator ready for use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Summary is an immutable snapshot of a Welford accumulator.
type Summary struct {
	// N is the number of observations.
	N int64
	// Mean and Std are the running mean and sample standard deviation.
	Mean, Std float64
	// Min and Max are the observed extremes.
	Min, Max float64
}

// Summary snapshots the accumulator.
func (w *Welford) Summary() Summary {
	return Summary{N: w.n, Mean: w.mean, Std: w.Std(), Min: w.min, Max: w.max}
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) over per-entity
// allocations: 1 means perfectly even service, 1/n means one entity
// monopolizes. Used to quantify the starvation behaviour that motivates
// the paper's shared-memory design. Empty or all-zero input yields 1.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
