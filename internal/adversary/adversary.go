// Package adversary implements the arrival constructions behind the
// paper's lower-bound theorems, each packaged with the policy it defeats,
// a scripted clairvoyant OPT strategy (the proof's "OPT accepts ..."),
// the finite-parameter ratio the proof predicts, and the asymptotic bound
// it establishes.
//
// Each construction is a round that repeats ("then the process
// repeats"). The proofs account steady-state throughput, so Run measures
// a window of rounds after warm-up rounds, with no flushing or draining:
// buffered inventory is identical at the window's ends and cancels out.
//
// The measured ratio scripted-OPT / policy certifies "at least
// X-competitive" behaviour: the scripted OPT is itself a legal algorithm
// on the same shared-memory switch, so any throughput gap it demonstrates
// lower bounds the true competitive ratio.
package adversary

import (
	"fmt"
	"math"
	"strconv"

	"smbm/internal/core"
	"smbm/internal/tablefmt"
	"smbm/internal/traffic"
)

// Construction is one theorem's executable counterexample.
type Construction struct {
	// ID is the stable handle ("thm1" ... "thm11").
	ID string
	// Theorem is the paper reference ("Theorem 4").
	Theorem string
	// Statement summarizes the bound ("LQD is at least √k-competitive").
	Statement string
	// Cfg is the switch configuration both systems run.
	Cfg core.Config
	// Policy is the online policy under attack.
	Policy core.Policy
	// Opt is the scripted clairvoyant strategy from the proof.
	Opt core.Policy
	// Round is one period of the repeating adversarial arrival script.
	Round traffic.Trace
	// Warmup is the number of uncounted rounds driving both systems to
	// steady state.
	Warmup int
	// Rounds is the number of counted rounds.
	Rounds int
	// Predicted is the ratio the proof's accounting yields at these
	// finite parameters.
	Predicted float64
	// Asymptotic is the bound as stated ("½√(k ln k)").
	Asymptotic string
	// AsymptoticValue evaluates the stated bound at these parameters.
	AsymptoticValue float64
}

// Outcome is the result of executing a construction.
type Outcome struct {
	// ID, Theorem and PolicyName echo identity fields for reporting.
	ID, Theorem, PolicyName string
	// AlgThroughput and OptThroughput are the two systems' objectives
	// over the measured window.
	AlgThroughput, OptThroughput int64
	// Ratio is OptThroughput/AlgThroughput.
	Ratio float64
	// Predicted and AsymptoticValue echo the construction.
	Predicted, AsymptoticValue float64
}

// Table runs each construction and renders the theorem table: both
// systems' objectives, the measured ratio scripted-OPT / policy, the
// proof's finite-parameter prediction, and the asymptotic bound
// evaluated at the construction's parameters.
func Table(cs []Construction) (string, error) {
	headers := []string{"theorem", "policy", "alg", "opt(script)", "measured", "predicted", "asymptotic"}
	rows := make([][]string, 0, len(cs))
	for _, c := range cs {
		o, err := c.Run()
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{
			o.Theorem,
			o.PolicyName,
			strconv.FormatInt(o.AlgThroughput, 10),
			strconv.FormatInt(o.OptThroughput, 10),
			fmt.Sprintf("%.3f", o.Ratio),
			fmt.Sprintf("%.3f", o.Predicted),
			fmt.Sprintf("%s = %.3f", c.Asymptotic, o.AsymptoticValue),
		})
	}
	return tablefmt.Render(headers, rows), nil
}

// Run executes the construction: both systems replay Warmup uncounted
// rounds and then Rounds counted rounds of the same script.
func (c Construction) Run() (Outcome, error) {
	alg, err := c.measure(c.Policy)
	if err != nil {
		return Outcome{}, err
	}
	opt, err := c.measure(c.Opt)
	if err != nil {
		return Outcome{}, err
	}
	o := Outcome{
		ID:              c.ID,
		Theorem:         c.Theorem,
		PolicyName:      c.Policy.Name(),
		AlgThroughput:   alg,
		OptThroughput:   opt,
		Predicted:       c.Predicted,
		AsymptoticValue: c.AsymptoticValue,
	}
	if o.AlgThroughput > 0 {
		o.Ratio = float64(o.OptThroughput) / float64(o.AlgThroughput)
	}
	return o, nil
}

// measure returns the throughput p achieves during the counted window.
// The repeating script is streamed through a traffic.Repeat cursor —
// the "then the process repeats" of the proofs as a re-derivable
// Provider — with the throughput snapshot taken at the warm-up
// boundary.
func (c Construction) measure(p core.Policy) (int64, error) {
	slots, err := c.slots()
	if err != nil {
		return 0, err
	}
	sw, err := core.New(c.Cfg, p)
	if err != nil {
		return 0, fmt.Errorf("adversary %s: %w", c.ID, err)
	}
	cur, err := traffic.Repeat{Round: c.Round, Rounds: c.Warmup + c.Rounds}.Open()
	if err != nil {
		return 0, fmt.Errorf("adversary %s: %w", c.ID, err)
	}
	defer cur.Close()
	warm := c.Warmup * len(c.Round)
	var before int64
	took := false
	for t := 0; t < slots; t++ {
		if t == warm {
			before = sw.Stats().Throughput(c.Cfg.Model)
			took = true
		}
		if err := sw.Step(cur.Next()); err != nil {
			return 0, fmt.Errorf("adversary %s: %s slot %d: %w", c.ID, p.Name(), t%max(len(c.Round), 1), err)
		}
	}
	if err := cur.Err(); err != nil {
		return 0, fmt.Errorf("adversary %s: %w", c.ID, err)
	}
	if !took {
		before = sw.Stats().Throughput(c.Cfg.Model)
	}
	return sw.Stats().Throughput(c.Cfg.Model) - before, nil
}

// slots returns the stream length, (Warmup+Rounds)·len(Round), and
// refuses one that does not fit an int: wrapped, it would run no slot
// and report a row of zeros.
func (c Construction) slots() (int, error) {
	n := len(c.Round)
	if c.Rounds > math.MaxInt-c.Warmup || n > 0 && c.Warmup+c.Rounds > math.MaxInt/n {
		return 0, fmt.Errorf("adversary %s: warmup %d + rounds %d, at %d slots a round, overflow an int", c.ID, c.Warmup, c.Rounds, n)
	}
	return (c.Warmup + c.Rounds) * n, nil
}

// Params tunes a construction. Zero fields take per-theorem defaults;
// a negative field is an error.
type Params struct {
	// K is the maximum work/value label.
	K int
	// B is the buffer size.
	B int
	// Rounds is the number of counted rounds.
	Rounds int
	// Warmup is the number of uncounted warm-up rounds.
	Warmup int
}

// withDefaults fills the zero fields with a construction's defaults,
// after refusing a negative field, which would otherwise size a slice
// below zero or run no round and print a row of zeros as a result.
func (p Params) withDefaults(k, b, rounds, warmup int) (Params, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"k", p.K}, {"B", p.B}, {"rounds", p.Rounds}, {"warmup", p.Warmup}} {
		if f.v < 0 {
			return p, fmt.Errorf("adversary: %s %d is negative", f.name, f.v)
		}
	}
	if p.K == 0 {
		p.K = k
	}
	if p.B == 0 {
		p.B = b
	}
	if p.Rounds == 0 {
		p.Rounds = rounds
	}
	if p.Warmup == 0 {
		p.Warmup = warmup
	}
	return p, nil
}

// All returns every construction at its default parameters.
func All() ([]Construction, error) {
	builders := []func(Params) (Construction, error){
		Theorem1, Theorem2, Theorem3, Theorem4, Theorem5, Theorem6,
		Theorem9, Theorem10, Theorem11,
	}
	out := make([]Construction, 0, len(builders))
	for _, b := range builders {
		c, err := b(Params{})
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// ByID builds the construction with the given ID at the given parameters.
func ByID(id string, p Params) (Construction, error) {
	switch id {
	case "thm1":
		return Theorem1(p)
	case "thm2":
		return Theorem2(p)
	case "thm3":
		return Theorem3(p)
	case "thm4":
		return Theorem4(p)
	case "thm5":
		return Theorem5(p)
	case "thm6":
		return Theorem6(p)
	case "thm9":
		return Theorem9(p)
	case "thm10":
		return Theorem10(p)
	case "thm11":
		return Theorem11(p)
	default:
		return Construction{}, fmt.Errorf("adversary: unknown construction %q", id)
	}
}
