// Package traffic generates the synthetic workloads of the paper's
// simulation study: the interleaving of many independent on-off bursty
// sources, each modeled as a Markov-modulated Poisson process (MMPP) that
// emits at rate λ_on in the "on" state and is silent in the "off" state.
//
// All randomness flows from an explicit seed, so every experiment is
// replayable. The package also provides trace materialization, replay and
// a text serialization for cmd/tracegen.
package traffic

import (
	"fmt"
	"math"

	"smbm/internal/pkt"
)

// Source produces the arrival burst of successive time slots. Arrivals
// within a slot are ordered (the paper serves input ports in fixed
// order).
type Source interface {
	// Next returns the packets arriving in the next slot. The slice is
	// borrowed: it stays valid only until the next call to Next on the
	// same source, and the caller must not write to it. A generator
	// reuses one buffer across slots and a trace replay hands out the
	// recorded slot itself, so a caller that keeps a burst past the
	// next call (Record, the harness's window in internal/sim) copies
	// it.
	Next() []pkt.Packet
}

// LabelMode selects how generated packets are labeled.
type LabelMode int

// Label modes for the three experiment families of Fig. 5.
const (
	// LabelWorkByPort generates processing-model packets: the port is
	// sampled and the packet's work is the port's configured
	// requirement (Fig. 5 panels 1–3).
	LabelWorkByPort LabelMode = iota + 1
	// LabelValueUniform generates value-model packets with value drawn
	// uniformly from [1,k], independent of the port (panels 4–6).
	LabelValueUniform
	// LabelValueByPort generates value-model packets whose value is
	// uniquely determined by the port: value = port+1. Requires
	// Ports == MaxLabel (panels 7–9).
	LabelValueByPort
)

// MMPPConfig parameterizes an interleaving of independent on-off MMPP
// sources.
type MMPPConfig struct {
	// Sources is the number of independent on-off processes (paper: 500).
	Sources int
	// LambdaOn is the per-source Poisson packet rate while "on".
	LambdaOn float64
	// POnOff is the per-slot probability of an "on" source turning off.
	POnOff float64
	// POffOn is the per-slot probability of an "off" source turning on.
	POffOn float64
	// Label selects the packet labeling scheme.
	Label LabelMode
	// Ports is the number of output ports packets are destined to.
	Ports int
	// MaxLabel is k, the bound on work/value labels.
	MaxLabel int
	// PortWork is the per-port work configuration consulted by
	// LabelWorkByPort; nil means unit work.
	PortWork []int
	// PortAffinity pins each source to one uniformly chosen port,
	// concentrating bursts on single queues. When false every packet
	// picks a port uniformly at random.
	PortAffinity bool
	// PortZipf skews port popularity with a Zipf(s) law: weight of port
	// i is 1/(i+1)^s, so low-numbered (cheap, in the contiguous
	// configuration) ports are the most popular. Zero keeps the uniform
	// choice. Applies to both per-packet port draws and per-source
	// affinity assignment.
	PortZipf float64
	// Seed initializes the generator; equal seeds give equal traces.
	Seed int64
}

// Validate checks the configuration.
func (c MMPPConfig) Validate() error {
	switch {
	case c.Sources < 1:
		return fmt.Errorf("traffic: sources %d < 1", c.Sources)
	case c.LambdaOn < 0 || math.IsNaN(c.LambdaOn) || math.IsInf(c.LambdaOn, 0):
		return fmt.Errorf("traffic: bad lambda %v", c.LambdaOn)
	case c.POnOff < 0 || c.POnOff > 1 || c.POffOn < 0 || c.POffOn > 1:
		return fmt.Errorf("traffic: transition probabilities out of [0,1]: on->off %v, off->on %v", c.POnOff, c.POffOn)
	case c.Ports < 1:
		return fmt.Errorf("traffic: ports %d < 1", c.Ports)
	case c.MaxLabel < 1:
		return fmt.Errorf("traffic: max label %d < 1", c.MaxLabel)
	case c.Label < LabelWorkByPort || c.Label > LabelValueByPort:
		return fmt.Errorf("traffic: unknown label mode %d", int(c.Label))
	case c.Label == LabelValueByPort && c.Ports != c.MaxLabel:
		return fmt.Errorf("traffic: value-by-port labeling needs ports == k, got %d != %d", c.Ports, c.MaxLabel)
	case c.PortWork != nil && len(c.PortWork) != c.Ports:
		return fmt.Errorf("traffic: len(PortWork)=%d != ports %d", len(c.PortWork), c.Ports)
	case c.PortZipf < 0 || math.IsNaN(c.PortZipf) || math.IsInf(c.PortZipf, 0):
		return fmt.Errorf("traffic: bad Zipf exponent %v", c.PortZipf)
	}
	return nil
}

// StationaryOnFraction returns the long-run fraction of time a source
// spends "on" under the two-state chain.
func (c MMPPConfig) StationaryOnFraction() float64 {
	if c.POffOn+c.POnOff == 0 {
		return 1 // chain never moves; sources start per the stationary draw below, treat as always-on
	}
	return c.POffOn / (c.POffOn + c.POnOff)
}

// MeanRate returns the expected aggregate packet arrivals per slot.
func (c MMPPConfig) MeanRate() float64 {
	return float64(c.Sources) * c.LambdaOn * c.StationaryOnFraction()
}

// LambdaForRate returns the LambdaOn that makes MeanRate equal rate,
// keeping every other field of c fixed.
func (c MMPPConfig) LambdaForRate(rate float64) float64 {
	denom := float64(c.Sources) * c.StationaryOnFraction()
	if denom == 0 {
		return 0
	}
	return rate / denom
}

// MMPP is the interleaving of independent on-off sources.
type MMPP struct {
	cfg        MMPPConfig
	src        lagged // the stream of rand.NewSource(cfg.Seed)
	on         []bool
	sourcePort []int        // fixed port per source when PortAffinity is set
	portCDF    []float64    // cumulative Zipf weights when PortZipf > 0
	expNeg     float64      // e^−LambdaOn, the Poisson product threshold
	offAt      int64        // lagThreshold(POnOff): an on source turns off on a draw below it
	onAt       int64        // lagThreshold(POffOn): an off source turns on on a draw below it
	buf        []pkt.Packet // burst storage reused by every Next
}

// NewMMPP builds the generator. Source states are initialized from the
// stationary distribution so traces need no warm-up.
func NewMMPP(cfg MMPPConfig) (*MMPP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &MMPP{
		cfg:    cfg,
		on:     make([]bool, cfg.Sources),
		expNeg: math.Exp(-cfg.LambdaOn),
		offAt:  lagThreshold(cfg.POnOff),
		onAt:   lagThreshold(cfg.POffOn),
	}
	g.src.Seed(cfg.Seed)
	t := g.src.tap
	pOn := cfg.StationaryOnFraction()
	for i := range g.on {
		var u float64
		u, t = g.src.float64(t)
		g.on[i] = u < pOn
	}
	if cfg.PortZipf > 0 {
		g.portCDF = make([]float64, cfg.Ports)
		var total float64
		for i := range g.portCDF {
			total += math.Pow(float64(i+1), -cfg.PortZipf)
			g.portCDF[i] = total
		}
		for i := range g.portCDF {
			g.portCDF[i] /= total
		}
	}
	if cfg.PortAffinity {
		g.sourcePort = make([]int, cfg.Sources)
		for i := range g.sourcePort {
			g.sourcePort[i], t = g.drawPort(t)
		}
	}
	g.src.tap = t
	return g, nil
}

// drawPort samples a destination port (uniform or Zipf-skewed) from tap
// index t and returns it with the advanced index.
func (g *MMPP) drawPort(t uint) (int, uint) {
	if g.portCDF == nil {
		return g.src.intn(t, g.cfg.Ports)
	}
	u, t := g.src.float64(t)
	lo, hi := 0, len(g.portCDF)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.portCDF[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, t
}

// Next implements Source. The burst is built in a buffer the generator
// keeps and overwrites on the next call. Every draw of the slot runs
// from one local tap index, stored back once at the end.
func (g *MMPP) Next() []pkt.Packet {
	out := g.buf[:0]
	src, t := &g.src, g.src.tap
	onAt, on := g.onAt, g.on
	for i := 0; i < len(on); i++ {
		// The off sources before the next on one, one draw each. One
		// unsigned compare catches both rare draws: one below onAt
		// (the source turns on) and one that Float64 would redraw.
		for ; i < len(on) && !on[i]; i++ {
			var x int64
			if x, t = src.int63(t); uint64(x-onAt) >= uint64(redrawAt-onAt) {
				if x >= redrawAt {
					x, t = src.kept(t)
				}
				on[i] = x < onAt
			}
		}
		if i == len(on) {
			break
		}
		var n int
		n, t = poisson(src, t, g.cfg.LambdaOn, g.expNeg)
		for ; n > 0; n-- {
			var p pkt.Packet
			p, t = g.emit(i, t)
			out = append(out, p)
		}
		var x int64
		if x, t = src.kept(t); x < g.offAt {
			on[i] = false
		}
	}
	g.src.tap = t
	g.buf = out
	return out
}

// emit labels one packet from source i, drawing from tap index t.
func (g *MMPP) emit(i int, t uint) (pkt.Packet, uint) {
	// Under PortAffinity the drawn port is discarded, but the draw is
	// kept on purpose: it advances the RNG, and removing it would shift
	// every seeded stream and every pinned digest.
	port, t := g.drawPort(t)
	if g.cfg.PortAffinity {
		port = g.sourcePort[i]
	}
	switch g.cfg.Label {
	case LabelWorkByPort:
		work := 1
		if g.cfg.PortWork != nil {
			work = g.cfg.PortWork[port]
		}
		return pkt.NewWork(port, work), t
	case LabelValueUniform:
		v, t := g.src.intn(t, g.cfg.MaxLabel)
		return pkt.NewValue(port, 1+v), t
	case LabelValueByPort:
		return pkt.NewValue(port, port+1), t
	default:
		panic(fmt.Sprintf("traffic: unreachable label mode %d", int(g.cfg.Label)))
	}
}

// poisson samples a Poisson variate from tap index t of src by Knuth's
// product method for small means and a clipped normal approximation for
// large ones (the megaburst sources of Fig. 5 panels 6 and 9 run at
// λ ≈ 320). The caller passes expNeg = e^−λ, the product method's
// threshold, so a generator computes it once rather than once per draw.
func poisson(src *lagged, t uint, lambda, expNeg float64) (int, uint) {
	if lambda <= 0 {
		return 0, t
	}
	if lambda > 30 {
		x, t := src.normFloat64(t)
		return max(0, int(math.Round(x*math.Sqrt(lambda)+lambda))), t
	}
	k, p := 0, 1.0
	for {
		var x int64
		x, t = src.kept(t)
		if p *= float64(x) / (1 << 63); p <= expNeg {
			return k, t
		}
		k++
	}
}
