package traffic

import (
	"math"
	"math/rand"
	"testing"
)

// lagSeeds are the seeds the stream tests run: zero (math/rand
// substitutes its own), a negative one, one above 2³¹ (reduced modulo
// 2³¹−1) and 2³¹−1 itself (which reduces to zero).
var lagSeeds = []int64{0, -7, 1 << 40, math.MaxInt32}

// TestLaggedMatchesMathRand runs the source alone against
// rand.New(rand.NewSource(seed)): 10⁶ draws per seed, mixing Float64,
// Intn over power-of-two, rejection-heavy and 63-bit bounds,
// NormFloat64, and the exported Int63 and Uint64.
func TestLaggedMatchesMathRand(t *testing.T) {
	bounds := []int{1, 7, 12, 16, 1 << 30, 1<<30 + 1, math.MaxInt32, 1 << 40, 1<<62 + 3}
	for _, seed := range lagSeeds {
		ref := rand.New(rand.NewSource(seed))
		var src lagged
		src.Seed(seed)
		at := src.tap
		pick := rand.New(rand.NewSource(seed + 1)) // which draw comes next
		for i := range 1_000_000 {
			switch k := pick.Intn(16); {
			case k < 7:
				var got float64
				got, at = src.float64(at)
				if want := ref.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, i, got, want)
				}
			case k < 13:
				n := bounds[pick.Intn(len(bounds))]
				var got int
				got, at = src.intn(at, n)
				if want := ref.Intn(n); got != want {
					t.Fatalf("seed %d draw %d: Intn(%d) %d, want %d", seed, i, n, got, want)
				}
			case k == 13:
				var got float64
				got, at = src.normFloat64(at)
				if want := ref.NormFloat64(); got != want {
					t.Fatalf("seed %d draw %d: NormFloat64 %v, want %v", seed, i, got, want)
				}
			case k == 14:
				src.tap = at
				got := src.Int63()
				at = src.tap
				if want := ref.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, i, got, want)
				}
			default:
				src.tap = at
				got := src.Uint64()
				at = src.tap
				if want := ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, i, got, want)
				}
			}
		}
	}
}

// TestLaggedFloat64Redraw pins the rounds-to-1 redraw: the last Int63
// value Float64 keeps is just below redrawAt, and redrawAt itself
// converts to exactly 1.
func TestLaggedFloat64Redraw(t *testing.T) {
	if f := float64(int64(redrawAt-1)) / (1 << 63); f >= 1 {
		t.Errorf("float64(redrawAt-1)/2⁶³ = %v, want < 1", f)
	}
	if f := float64(int64(redrawAt)) / (1 << 63); f != 1 {
		t.Errorf("float64(redrawAt)/2⁶³ = %v, want 1", f)
	}
}

// TestLagThreshold checks that each threshold is the exact edge of
// Float64's comparison: the draw just below it compares below p, the
// draw at it does not.
func TestLagThreshold(t *testing.T) {
	f := func(x int64) float64 { return float64(x) / (1 << 63) }
	ps := []float64{0, 1, math.NaN(), -1, 2, 5e-324, 1e-300, 0.01, 0.1, 0.5, 1 - 1.0/(1<<53), math.Nextafter(1, 0)}
	pick := rand.New(rand.NewSource(5))
	for range 200 {
		ps = append(ps, pick.Float64())
	}
	for _, p := range ps {
		at := lagThreshold(p)
		if at < 0 || at > redrawAt {
			t.Fatalf("lagThreshold(%v) = %d, outside [0, redrawAt]", p, at)
		}
		if at > 0 && !(f(at-1) < p) {
			t.Errorf("lagThreshold(%v) = %d, but draw %d is not below p", p, at, at-1)
		}
		if at < redrawAt && f(at) < p {
			t.Errorf("lagThreshold(%v) = %d, but that draw is below p", p, at)
		}
	}
	if got := lagThreshold(1); got != redrawAt {
		t.Errorf("lagThreshold(1) = %d, want redrawAt: every kept draw is below 1", got)
	}
	if got := lagThreshold(math.NaN()); got != 0 {
		t.Errorf("lagThreshold(NaN) = %d, want 0: no draw compares below NaN", got)
	}
}
