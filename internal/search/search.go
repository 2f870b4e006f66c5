// Package search hunts for worst-case instances of a policy by
// randomized generation plus hill climbing against the exact offline
// optimum on tiny instances. It is the empirical tool for the paper's
// open problems:
//
//   - Theorem 7 says LWD never exceeds ratio 2 — the hunt must fail to
//     find anything above it (and how close it gets measures the bound's
//     tightness);
//   - the paper conjectures MRD is constant-competitive in the value
//     model — the hunt reports the largest ratio it can construct.
//
// Every instance is scored against opt.Exact, the true offline optimum
// of both models, so every reported ratio is certified, not
// measured against a proxy. The switch should be small, so that the
// exact solver's state space stays within its budget; the trace length
// is free.
package search

import (
	"fmt"
	"math/rand"

	"smbm/internal/core"
	"smbm/internal/opt"
	"smbm/internal/pkt"
	"smbm/internal/traffic"
)

// Spec parameterizes a hunt.
type Spec struct {
	// Cfg is the (tiny) switch configuration.
	Cfg core.Config
	// Policy is the online policy under attack.
	Policy core.Policy
	// Slots and MaxBurst bound generated traces.
	Slots, MaxBurst int
	// Trials is the number of random starting instances.
	Trials int
	// Climb is the number of mutation steps attempted from every
	// improving instance.
	Climb int
	// Seed makes the hunt reproducible.
	Seed int64
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if err := s.Cfg.Validate(); err != nil {
		return err
	}
	switch {
	case s.Policy == nil:
		return fmt.Errorf("search: nil policy")
	case s.Slots < 1:
		return fmt.Errorf("search: slots %d < 1", s.Slots)
	case s.MaxBurst < 1:
		return fmt.Errorf("search: max burst %d < 1", s.MaxBurst)
	case s.Trials < 1:
		return fmt.Errorf("search: trials %d < 1", s.Trials)
	case s.Climb < 0:
		return fmt.Errorf("search: climb %d is negative", s.Climb)
	}
	return nil
}

// Worst is the most adversarial instance a hunt found.
type Worst struct {
	// Ratio is ExactOpt/Alg, the certified competitive-ratio witness.
	Ratio float64
	// Exact and Alg are the two objective values.
	Exact, Alg int64
	// Trace is the witness arrival sequence.
	Trace traffic.Trace
	// Evaluated counts instances scored (random + climb steps).
	Evaluated int
}

// Run executes the hunt.
func Run(spec Spec) (Worst, error) {
	if err := spec.Validate(); err != nil {
		return Worst{}, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	var worst Worst
	for trial := 0; trial < spec.Trials; trial++ {
		tr := randomTrace(rng, spec)
		w, err := score(spec, tr)
		if err != nil {
			return Worst{}, err
		}
		worst.Evaluated++
		if w.Ratio > worst.Ratio {
			worst = Worst{Ratio: w.Ratio, Exact: w.Exact, Alg: w.Alg, Trace: tr, Evaluated: worst.Evaluated}
		}
		// Hill climb from the current global worst.
		for step := 0; step < spec.Climb; step++ {
			mut := mutate(rng, spec, worst.Trace)
			w, err := score(spec, mut)
			if err != nil {
				return Worst{}, err
			}
			worst.Evaluated++
			if w.Ratio > worst.Ratio {
				worst = Worst{Ratio: w.Ratio, Exact: w.Exact, Alg: w.Alg, Trace: mut, Evaluated: worst.Evaluated}
			}
		}
	}
	return worst, nil
}

// score runs the policy and the exact optimum on one trace.
func score(spec Spec, tr traffic.Trace) (Worst, error) {
	exact, err := opt.Exact(spec.Cfg, tr)
	if err != nil {
		return Worst{}, err
	}
	sw, err := core.New(spec.Cfg, spec.Policy)
	if err != nil {
		return Worst{}, err
	}
	for _, burst := range tr {
		if err := sw.Step(burst); err != nil {
			return Worst{}, err
		}
	}
	sw.Drain()
	alg := sw.Stats().Throughput(spec.Cfg.Model)
	w := Worst{Exact: exact, Alg: alg}
	switch {
	case alg > 0:
		w.Ratio = float64(exact) / float64(alg)
	case exact > 0:
		w.Ratio = float64(exact) // alg got nothing: treat as exact/1
	default:
		w.Ratio = 1
	}
	return w, nil
}

// randomTrace draws a legal instance of at most 24 arrivals.
func randomTrace(rng *rand.Rand, spec Spec) traffic.Trace {
	tr := make(traffic.Trace, spec.Slots)
	// The budget is no solver limit: it fixes the traces each seed
	// draws, so recorded hunt results stay reproducible.
	budget := 24
	for s := range tr {
		n := rng.Intn(spec.MaxBurst + 1)
		if n > budget {
			n = budget
		}
		budget -= n
		burst := make([]pkt.Packet, n)
		for i := range burst {
			burst[i] = randomPacket(rng, spec.Cfg)
		}
		tr[s] = burst
	}
	return tr
}

func randomPacket(rng *rand.Rand, cfg core.Config) pkt.Packet {
	port := rng.Intn(cfg.Ports)
	if cfg.Model == core.ModelValue {
		return pkt.NewValue(port, 1+rng.Intn(cfg.MaxLabel))
	}
	work := 1
	if cfg.PortWork != nil {
		work = cfg.PortWork[port]
	}
	return pkt.NewWork(port, work)
}

// mutate returns a copy of tr with one random edit: add, delete, or
// relabel a packet.
func mutate(rng *rand.Rand, spec Spec, tr traffic.Trace) traffic.Trace {
	out := make(traffic.Trace, len(tr))
	total := 0
	for s := range tr {
		out[s] = append([]pkt.Packet(nil), tr[s]...)
		total += len(tr[s])
	}
	slot := rng.Intn(len(out))
	switch op := rng.Intn(3); {
	case op == 0 && total < 24: // add
		out[slot] = append(out[slot], randomPacket(rng, spec.Cfg))
	case op == 1 && len(out[slot]) > 0: // delete
		i := rng.Intn(len(out[slot]))
		out[slot] = append(out[slot][:i], out[slot][i+1:]...)
	case len(out[slot]) > 0: // relabel
		i := rng.Intn(len(out[slot]))
		out[slot][i] = randomPacket(rng, spec.Cfg)
	default:
		if total < 24 {
			out[slot] = append(out[slot], randomPacket(rng, spec.Cfg))
		}
	}
	return out
}
