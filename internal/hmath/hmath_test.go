package hmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHarmonicSmall(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{-3, 0},
		{1, 1},
		{2, 1.5},
		{3, 1 + 0.5 + 1.0/3},
		{10, 2.9289682539682538},
	}
	for _, c := range cases {
		if got := Harmonic(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Harmonic(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestHarmonicAsymptoticAgreesWithSummation(t *testing.T) {
	// The asymptotic branch starts above 1<<16; compare both methods in
	// a region where direct summation is still exact enough.
	n := 1 << 17
	var direct float64
	for i := n; i >= 1; i-- {
		direct += 1 / float64(i)
	}
	if got := Harmonic(n); math.Abs(got-direct) > 1e-9 {
		t.Errorf("Harmonic(%d) = %.12f, direct sum %.12f", n, got, direct)
	}
}

func TestHarmonicMonotone(t *testing.T) {
	f := func(a uint16) bool {
		n := int(a%10000) + 1
		return Harmonic(n+1) > Harmonic(n)
	}
	if err := quick.Check(f, qcfg(100)); err != nil {
		t.Error(err)
	}
}

func TestHarmonicRange(t *testing.T) {
	if got, want := HarmonicRange(1, 10), Harmonic(10); math.Abs(got-want) > 1e-12 {
		t.Errorf("HarmonicRange(1,10) = %v, want H_10 = %v", got, want)
	}
	if got, want := HarmonicRange(4, 10), Harmonic(10)-Harmonic(3); math.Abs(got-want) > 1e-12 {
		t.Errorf("HarmonicRange(4,10) = %v, want %v", got, want)
	}
	if got := HarmonicRange(5, 4); got != 0 {
		t.Errorf("HarmonicRange(5,4) = %v, want 0", got)
	}
	if got, want := HarmonicRange(-2, 3), Harmonic(3); math.Abs(got-want) > 1e-12 {
		t.Errorf("HarmonicRange(-2,3) = %v, want %v", got, want)
	}
}

func TestInverseWorkSum(t *testing.T) {
	if got := InverseWorkSum(nil); got != 0 {
		t.Errorf("InverseWorkSum(nil) = %v, want 0", got)
	}
	works := []int{1, 2, 4}
	if got, want := InverseWorkSum(works), 1.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("InverseWorkSum(%v) = %v, want %v", works, got, want)
	}
}

func TestEulerGammaRelation(t *testing.T) {
	// H_n − ln n → γ; at n = 10⁶ the difference from γ is ~5e-7.
	n := 1 << 20
	if got := Harmonic(n) - math.Log(float64(n)); math.Abs(got-EulerGamma) > 1e-6 {
		t.Errorf("H_n − ln n = %v, want ≈ γ = %v", got, EulerGamma)
	}
}

// qcfg returns a deterministic quick.Config so property tests are
// reproducible run to run.
func qcfg(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(7))}
}

// TestHarmonicBitIdentical pins Harmonic, for every n in [0, 1<<17],
// to a naive backward summation 1/n + 1/(n−1) + … + 1/1: bit for bit
// wherever Harmonic sums (the table and the direct-sum branch, n <=
// 1<<16), and within 1e-9 on the first asymptotic values above it.
func TestHarmonicBitIdentical(t *testing.T) {
	const summed, last = 1 << 16, 1 << 17
	// One backward pass builds every naive sum at once: sums[n] takes
	// 1/i for each i from n down to 1, in that order.
	sums := make([]float64, summed+1)
	for i := summed; i >= 1; i-- {
		x := 1 / float64(i)
		row := sums[i:]
		for n := range row {
			row[n] += x
		}
	}
	for n, want := range sums {
		if got := Harmonic(n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Harmonic(%d) = %v (bits %#x), naive backward sum %v (bits %#x)",
				n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// Above the direct-sum branch a forward running sum stands in for
	// the backward one: its rounding error stays below n·ε·H_n < 2e-10.
	h := sums[summed]
	for n := summed + 1; n <= last; n++ {
		h += 1 / float64(n)
		if got := Harmonic(n); math.Abs(got-h) > 1e-9 {
			t.Fatalf("Harmonic(%d) = %.12f, summation %.12f", n, got, h)
		}
	}
}

// BenchmarkHarmonicTable times the table build every process pays at
// package init.
func BenchmarkHarmonicTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tableSink = buildHarmonicTable()
	}
}

var tableSink [harmonicTableSize]float64
