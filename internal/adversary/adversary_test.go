package adversary

import (
	"math"
	"strings"
	"testing"
)

// TestConstructionsMeetPredictions executes every lower-bound
// construction at its default parameters and checks the measured ratio
// against the proof's finite-parameter prediction. The tolerances are
// generous where the proof's accounting discards lower-order terms
// (Theorems 3, 4, 9) and tight where it is exact (Theorems 1, 2, 5, 6,
// 10, 11).
func TestConstructionsMeetPredictions(t *testing.T) {
	tolerances := map[string]float64{
		"thm1":  0.02,
		"thm2":  0.02,
		"thm3":  0.15,
		"thm4":  0.10,
		"thm5":  0.02,
		"thm6":  0.02,
		"thm9":  0.10,
		"thm10": 0.02,
		"thm11": 0.02,
	}
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 9 {
		t.Fatalf("got %d constructions, want 9", len(all))
	}
	for _, c := range all {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			t.Parallel()
			o, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if o.AlgThroughput <= 0 || o.OptThroughput <= 0 {
				t.Fatalf("degenerate throughputs: %+v", o)
			}
			tol := tolerances[c.ID]
			rel := math.Abs(o.Ratio-o.Predicted) / o.Predicted
			if rel > tol {
				t.Errorf("measured %.3f vs predicted %.3f (rel err %.3f > %.2f)",
					o.Ratio, o.Predicted, rel, tol)
			}
			// Every construction demonstrates a real gap: the attacked
			// policy must lose noticeably to the scripted OPT.
			if o.Ratio < 1.1 {
				t.Errorf("measured ratio %.3f shows no adversarial gap", o.Ratio)
			}
		})
	}
}

// TestConstructionMetadata checks the reporting fields are filled in.
func TestConstructionMetadata(t *testing.T) {
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all {
		if c.Theorem == "" || c.Statement == "" || c.Asymptotic == "" {
			t.Errorf("%s: incomplete metadata %+v", c.ID, c)
		}
		if c.Predicted <= 1 || c.AsymptoticValue <= 0 {
			t.Errorf("%s: implausible bounds %v / %v", c.ID, c.Predicted, c.AsymptoticValue)
		}
		if err := c.Cfg.Validate(); err != nil {
			t.Errorf("%s: invalid config: %v", c.ID, err)
		}
		if len(c.Round) == 0 || c.Rounds < 1 {
			t.Errorf("%s: empty round structure", c.ID)
		}
	}
}

func TestByID(t *testing.T) {
	c, err := ByID("thm5", Params{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cfg.Ports != 6 {
		t.Errorf("K override ignored: ports %d", c.Cfg.Ports)
	}
	if _, err := ByID("thm7", Params{}); err == nil {
		t.Error("unknown id accepted") // Theorem 7 is an upper bound, not a construction
	}
}

func TestParameterValidation(t *testing.T) {
	cases := []struct {
		id string
		p  Params
	}{
		{"thm1", Params{K: 1}},
		{"thm2", Params{K: 1}},
		{"thm3", Params{K: 4}},
		{"thm4", Params{K: 2}},
		{"thm5", Params{K: 1}},
		{"thm6", Params{K: 5}},
		{"thm6", Params{K: 6, B: 24}},
		{"thm9", Params{K: 4}},
		{"thm10", Params{K: 1}},
		{"thm11", Params{K: 7}},
	}
	for _, c := range cases {
		if _, err := ByID(c.id, c.p); err == nil {
			t.Errorf("%s with %+v accepted", c.id, c.p)
		}
	}
}

// TestNegativeParamsRefused: a negative override is an error naming the
// field, in every construction. Zero takes the default, so without the
// check a negative rounds or warmup ran no round and reported ratio 0,
// and a negative k or B sized a slice below zero.
func TestNegativeParamsRefused(t *testing.T) {
	ids := []string{"thm1", "thm2", "thm3", "thm4", "thm5", "thm6", "thm9", "thm10", "thm11"}
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"k", Params{K: -6}},
		{"B", Params{B: -3}},
		{"rounds", Params{Rounds: -2}},
		{"warmup", Params{Warmup: -3}},
	} {
		for _, id := range ids {
			_, err := ByID(id, c.p)
			if err == nil || !strings.Contains(err.Error(), c.name+" ") || !strings.Contains(err.Error(), "negative") {
				t.Errorf("%s with %+v: err = %v, want one naming %s as negative", id, c.p, err, c.name)
			}
		}
	}
}

// TestOverflowingRoundsRefused: a round count whose slot count
// (Warmup+Rounds)·len(Round) does not fit an int is an error naming
// rounds and warmup, in every construction. Without the check the
// count wrapped below zero, no slot ran, and the row read all zeros.
func TestOverflowingRoundsRefused(t *testing.T) {
	ids := []string{"thm1", "thm2", "thm3", "thm4", "thm5", "thm6", "thm9", "thm10", "thm11"}
	for _, id := range ids {
		base, err := ByID(id, Params{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Params{
			{Rounds: math.MaxInt},
			{Warmup: math.MaxInt},
			// The sum fits; the product with the round length does not.
			{Rounds: math.MaxInt / len(base.Round), Warmup: 1},
		} {
			c, err := ByID(id, p)
			if err == nil {
				_, err = c.Run()
			}
			if err == nil || !strings.Contains(err.Error(), "rounds ") || !strings.Contains(err.Error(), "warmup ") {
				t.Errorf("%s with %+v: err = %v, want one naming rounds and warmup", id, p, err)
			}
		}
	}
}

// TestTheorem4GrowsWithK: the LQD gap must grow roughly like √k — check
// monotonicity over a small ladder (the shape reproduction for the bound
// table).
func TestTheorem4GrowsWithK(t *testing.T) {
	var prev float64
	for _, k := range []int{16, 64, 144} {
		c, err := Theorem4(Params{K: k, B: 40 * int(math.Sqrt(float64(k))), Rounds: 2, Warmup: 2})
		if err != nil {
			t.Fatal(err)
		}
		o, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if o.Ratio <= prev {
			t.Errorf("k=%d: ratio %.3f did not grow (prev %.3f)", k, o.Ratio, prev)
		}
		prev = o.Ratio
	}
}

// TestTheorem5TracksHarmonic: the BPD gap tracks H_k across k.
func TestTheorem5TracksHarmonic(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		c, err := Theorem5(Params{K: k})
		if err != nil {
			t.Fatal(err)
		}
		o, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(o.Ratio-o.Predicted)/o.Predicted > 0.05 {
			t.Errorf("k=%d: measured %.3f vs H_k %.3f", k, o.Ratio, o.Predicted)
		}
	}
}
