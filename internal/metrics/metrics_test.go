package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyWelford(t *testing.T) {
	var w Welford
	if s := w.Summary(); s != (Summary{}) || w.Variance() != 0 {
		t.Errorf("empty accumulator not all-zero: %+v", s)
	}
}

func TestSingleObservation(t *testing.T) {
	var w Welford
	w.Add(4.2)
	if s := w.Summary(); s != (Summary{N: 1, Mean: 4.2, Min: 4.2, Max: 4.2}) || w.Variance() != 0 {
		t.Errorf("single obs: %+v", s)
	}
}

func TestKnownMoments(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	// Sample variance with n-1: sum sq dev = 32, / 7.
	if got, want := w.Variance(), 32.0/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	s := w.Summary()
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 || s.Std != math.Sqrt(w.Variance()) {
		t.Errorf("Summary = %+v", s)
	}
}

func TestJainIndex(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 1},
		{"all zero", []float64{0, 0}, 1},
		{"perfectly fair", []float64{3, 3, 3}, 1},
		{"monopoly of one in four", []float64{1, 0, 0, 0}, 0.25},
		{"two of four", []float64{1, 1, 0, 0}, 0.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
				t.Errorf("JainIndex(%v) = %v, want %v", c.xs, got, c.want)
			}
		})
	}
	// Index is scale-invariant.
	a := JainIndex([]float64{1, 2, 3})
	b := JainIndex([]float64{10, 20, 30})
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("not scale invariant: %v vs %v", a, b)
	}
}

// TestQuickMatchesNaive compares against two-pass formulas on random
// datasets.
func TestQuickMatchesNaive(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		var w Welford
		var sum float64
		for i := range xs {
			xs[i] = rng.NormFloat64()*100 + 50
			w.Add(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(n)
		var sq float64
		mn, mx := xs[0], xs[0]
		for _, x := range xs {
			sq += (x - mean) * (x - mean)
			mn = math.Min(mn, x)
			mx = math.Max(mx, x)
		}
		naiveVar := sq / float64(n-1)
		s := w.Summary()
		return s.N == int64(n) && math.Abs(s.Mean-mean) < 1e-9*math.Abs(mean)+1e-9 &&
			math.Abs(w.Variance()-naiveVar) < 1e-6*naiveVar+1e-9 &&
			s.Min == mn && s.Max == mx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}
