// Package experiments defines the paper's evaluation as runnable
// artifacts: the nine panels of Fig. 5 as spec.Experiment values, which
// spec.ToSweep compiles into seeded parameter sweeps over MMPP traffic,
// and the arch and latency experiments, whose cells come from
// spec.Experiment.Instance too. cmd/smbsim, cmd/report and the benchmark
// harness are thin wrappers over this package.
//
// The paper's graph captions (and hence exact traffic parameters) are not
// part of the text, so the defaults here are chosen to reproduce the
// *shape* of each panel — who wins, growth trends, crossovers — under
// documented congestion levels. All parameters are overridable.
package experiments

import (
	"fmt"
	"runtime"

	"smbm/internal/hmath"
	"smbm/internal/sim"
	"smbm/internal/spec"
)

// Options tunes the scale of a panel run. Zero fields take defaults.
type Options struct {
	// Slots is the trace length per replication (paper: 2·10⁶; default
	// here is laptop-scale).
	Slots int
	// Seeds is the number of independent replications per point.
	Seeds int
	// Sources is the number of MMPP on-off sources (paper: 500).
	Sources int
	// FlushEvery drains all systems periodically (paper: "periodic
	// flushouts").
	FlushEvery int
	// BaseSeed makes the whole panel deterministic.
	BaseSeed int64
	// Parallelism bounds worker goroutines (0 = GOMAXPROCS): a panel's
	// concurrent cells, or the systems the arch and latency experiments
	// step through each window of their streams.
	Parallelism int
}

// Defaults returns the laptop-scale default options.
func Defaults() Options {
	return Options{
		Slots:      4000,
		Seeds:      3,
		Sources:    100,
		FlushEvery: 1000,
		BaseSeed:   1,
	}
}

// PaperScale returns the paper's Section V evaluation scale: 2·10⁶
// slots and 500 MMPP on-off sources per replication, one seed. Panels
// built at this scale stream arrivals from seeded generator specs: a
// cell generates its stream once, one window of slots at a time, so
// its arrival memory stays O(Sources) regardless of the slot count.
func PaperScale() Options {
	return Options{
		Slots:      2_000_000,
		Seeds:      1,
		Sources:    500,
		FlushEvery: 1000,
		BaseSeed:   1,
	}
}

// ScaleOptions resolves a named option preset: "" or "laptop" for
// Defaults, "paper" for PaperScale.
func ScaleOptions(name string) (Options, error) {
	switch name {
	case "", "laptop":
		return Defaults(), nil
	case "paper":
		return PaperScale(), nil
	default:
		return Options{}, fmt.Errorf("experiments: unknown scale %q (want laptop or paper)", name)
	}
}

// workers resolves Parallelism for a run outside a sweep: 0 means
// GOMAXPROCS, as it does for a panel's sweep.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) withDefaults() Options {
	d := Defaults()
	if o.Slots == 0 {
		o.Slots = d.Slots
	}
	if o.Seeds == 0 {
		o.Seeds = d.Seeds
	}
	if o.Sources == 0 {
		o.Sources = d.Sources
	}
	if o.FlushEvery == 0 {
		o.FlushEvery = d.FlushEvery
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = d.BaseSeed
	}
	return o
}

// Congestion levels (offered load as a multiple of service capacity).
// Every panel keeps the spec's default MMPP burstiness — sources spend
// ~9% of slots "on" and emit in bursts roughly 10 slots long — except
// the spiky panels 6 and 9.
const (
	loadProcessing = 2.5 // panels 1–2
	loadSpeedupRef = 3.0 // panel 3: load 1 is crossed at C = 3
	loadValue      = 2.5 // panels 4–5, 7–8
	spikyLoad      = 4.0 // panels 6, 9: slot-scale megabursts, load 1 at C = 4
)

// PanelIDs lists the nine Fig. 5 panels in order.
func PanelIDs() []string {
	return []string{
		"fig5.1", "fig5.2", "fig5.3",
		"fig5.4", "fig5.5", "fig5.6",
		"fig5.7", "fig5.8", "fig5.9",
	}
}

// Panel builds the sweep for one Fig. 5 panel: its spec at o's scale,
// compiled by spec.ToSweep.
func Panel(id string, o Options) (*sim.Sweep, error) {
	e, err := panelSpec(id, o)
	if err != nil {
		return nil, err
	}
	sweep, err := e.ToSweep()
	if err != nil {
		return nil, err
	}
	sweep.Parallelism = o.Parallelism
	return sweep, nil
}

// panelSpec returns the spec of one Fig. 5 panel at o's scale. In the
// value model n = k: the by-port panels 7–9 identify values with ports,
// and the uniform panels 4–6 keep the same geometry for comparability.
func panelSpec(id string, o Options) (*spec.Experiment, error) {
	o = o.withDefaults()
	label := "uniform"
	if id == "fig5.7" || id == "fig5.8" || id == "fig5.9" {
		label = "by-port"
	}
	var e spec.Experiment
	switch id {
	case "fig5.1": // ratio vs k at constant relative load
		e = spec.Experiment{Model: "processing", Sweep: "k", Values: []int{2, 4, 8, 12, 16, 24, 32},
			B: 200, C: 1, Traffic: spec.Traffic{Load: loadProcessing}}
	case "fig5.2": // ratio vs B, from congested to uncongested
		e = spec.Experiment{Model: "processing", Sweep: "B", Values: []int{32, 64, 128, 256, 512, 1024, 2048},
			K: 16, C: 1, Traffic: spec.Traffic{Load: loadProcessing}}
	case "fig5.3": // ratio vs C at a fixed offered rate (load crosses 1 at C = 3)
		e = spec.Experiment{Model: "processing", Sweep: "C", Values: []int{1, 2, 3, 4, 5, 6, 8},
			K: 16, B: 200, Traffic: spec.Traffic{Rate: loadSpeedupRef * hmath.Harmonic(16)}}
	case "fig5.4", "fig5.7": // ratio vs k at a fixed offered rate: more ports relieve congestion
		e = spec.Experiment{Model: "value", Sweep: "k", Values: []int{2, 4, 8, 16, 24, 32},
			B: 200, C: 1, Label: label, Traffic: spec.Traffic{Rate: loadValue * 16}}
	case "fig5.5", "fig5.8": // ratio vs B
		e = spec.Experiment{Model: "value", Sweep: "B", Values: []int{32, 64, 128, 256, 512, 1024, 2048},
			K: 16, C: 1, Label: label, Traffic: spec.Traffic{Rate: loadValue * 16}}
	case "fig5.6", "fig5.9":
		// Ratio vs C: a few heavy sources emit slot-scale megabursts
		// that fit in a slot's service at large C but not in the buffer,
		// letting MVD shine. In the uniform case they are port-uniform,
		// so a megaburst floods the whole buffer at once.
		affinity := label == "by-port"
		e = spec.Experiment{Model: "value", Sweep: "C", Values: []int{1, 2, 4, 8, 12, 16},
			K: 16, B: 200, Label: label, Traffic: spec.Traffic{Sources: max(4, o.Sources/5), Rate: spikyLoad * 16,
				POnOff: 0.5, POffOn: 0.005, Affinity: &affinity}}
	default:
		return nil, fmt.Errorf("experiments: unknown panel %q (want one of %v)", id, PanelIDs())
	}
	e.Name = id
	return o.scaled(e), nil
}

// scaled returns e at o's scale: trace length, replications, flush
// period, base seed and, unless e fixes its own, the source count.
func (o Options) scaled(e spec.Experiment) *spec.Experiment {
	e.Slots, e.Seeds, e.FlushEvery, e.BaseSeed = o.Slots, o.Seeds, o.FlushEvery, o.BaseSeed
	if e.Traffic.Sources == 0 {
		e.Traffic.Sources = o.Sources
	}
	return &e
}
