// Package experiments defines the paper's evaluation as runnable
// artifacts: the nine panels of Fig. 5 as seeded parameter sweeps over
// MMPP traffic, and the theorem lower-bound constructions. cmd/smbsim,
// cmd/lowerbound and the benchmark harness are thin wrappers over this
// package.
//
// The paper's graph captions (and hence exact traffic parameters) are not
// part of the text, so the defaults here are chosen to reproduce the
// *shape* of each panel — who wins, growth trends, crossovers — under
// documented congestion levels. All parameters are overridable.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"smbm/internal/core"
	"smbm/internal/hmath"
	"smbm/internal/policy"
	"smbm/internal/sim"
	"smbm/internal/traffic"
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
	// Parallelism bounds worker goroutines (0 = GOMAXPROCS).
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
// built at this scale stream arrivals from seeded generator specs, so
// per-worker trace memory stays O(Sources) regardless of the slot
// count.
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

// MMPP burstiness defaults: sources spend ~9% of slots "on" and emit in
// bursts roughly 10 slots long (1/pOnOff).
const (
	pOnOff = 0.1
	pOffOn = 0.01
)

// Congestion levels (offered load as a multiple of service capacity).
const (
	loadProcessing = 2.5 // panels 1–2
	loadSpeedupRef = 3.0 // panels 3, 6, 9: load 1 is crossed at C = 3
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

// Panel builds the sweep for one Fig. 5 panel.
func Panel(id string, o Options) (*sim.Sweep, error) {
	o = o.withDefaults()
	switch id {
	case "fig5.1":
		return panelProcK(o), nil
	case "fig5.2":
		return panelProcB(o), nil
	case "fig5.3":
		return panelProcC(o), nil
	case "fig5.4":
		return panelValK(o, traffic.LabelValueUniform), nil
	case "fig5.5":
		return panelValB(o, traffic.LabelValueUniform), nil
	case "fig5.6":
		return panelValC(o, traffic.LabelValueUniform), nil
	case "fig5.7":
		return panelValK(o, traffic.LabelValueByPort), nil
	case "fig5.8":
		return panelValB(o, traffic.LabelValueByPort), nil
	case "fig5.9":
		return panelValC(o, traffic.LabelValueByPort), nil
	default:
		return nil, fmt.Errorf("experiments: unknown panel %q (want one of %v)", id, PanelIDs())
	}
}

// policyNames renders a roster compactly for config digests.
func policyNames(ps []core.Policy) string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name()
	}
	return strings.Join(names, ",")
}

// cellDigest canonically renders everything a panel's Build bakes into
// its cells — model, the fixed k/B/C dimensions (the swept one marked
// "swept" since the Xs are fingerprinted separately), the policy
// roster and the traffic scale — for sim.Sweep.ConfigDigest, so a
// ledger resume after any flag change is refused instead of silently
// merging stale cells.
func cellDigest(model, swept string, k, b, c int, policies string, o Options) string {
	dim := func(name string, v int) string {
		if name == swept {
			return name + "=swept"
		}
		return fmt.Sprintf("%s=%d", name, v)
	}
	return fmt.Sprintf("model=%s;%s;%s;%s;policies=%s;slots=%d;sources=%d;flush=%d",
		model, dim("k", k), dim("B", b), dim("C", c), policies, o.Slots, o.Sources, o.FlushEvery)
}

// procCapacity is the processing model's aggregate service rate in
// packets per slot under the contiguous configuration: Σ C/w_i = C·H_k.
func procCapacity(k, speedup int) float64 {
	return float64(speedup) * hmath.Harmonic(k)
}

// procInstance assembles one processing-model cell.
func procInstance(k, b, c int, rate float64, o Options, seed int64) (sim.Instance, error) {
	cfg := core.Config{
		Model:    core.ModelProcessing,
		Ports:    k,
		Buffer:   b,
		MaxLabel: k,
		Speedup:  c,
		PortWork: core.ContiguousWorks(k),
	}
	mcfg := traffic.MMPPConfig{
		Sources:      o.Sources,
		POnOff:       pOnOff,
		POffOn:       pOffOn,
		Label:        traffic.LabelWorkByPort,
		Ports:        k,
		MaxLabel:     k,
		PortWork:     cfg.PortWork,
		PortAffinity: true,
		Seed:         seed,
	}
	mcfg.LambdaOn = mcfg.LambdaForRate(rate)
	prov, err := traffic.NewMMPPProvider(mcfg, o.Slots)
	if err != nil {
		return sim.Instance{}, err
	}
	return sim.Instance{
		Cfg:        cfg,
		Policies:   policy.ForProcessing(),
		Provider:   prov,
		FlushEvery: o.FlushEvery,
	}, nil
}

// panelProcK is Fig. 5(1): processing model, ratio vs k at constant
// relative load.
func panelProcK(o Options) *sim.Sweep {
	return &sim.Sweep{
		Name:         "fig5.1",
		XLabel:       "k",
		Xs:           []int{2, 4, 8, 12, 16, 24, 32},
		Seeds:        o.Seeds,
		BaseSeed:     o.BaseSeed,
		Parallelism:  o.Parallelism,
		ConfigDigest: cellDigest("processing", "k", 0, 200, 1, policyNames(policy.ForProcessing()), o),
		Build: func(k int, seed int64) (sim.Instance, error) {
			return procInstance(k, 200, 1, loadProcessing*procCapacity(k, 1), o, seed)
		},
	}
}

// panelProcB is Fig. 5(2): processing model, ratio vs B from congested to
// uncongested.
func panelProcB(o Options) *sim.Sweep {
	const k = 16
	return &sim.Sweep{
		Name:         "fig5.2",
		XLabel:       "B",
		Xs:           []int{32, 64, 128, 256, 512, 1024, 2048},
		Seeds:        o.Seeds,
		BaseSeed:     o.BaseSeed,
		Parallelism:  o.Parallelism,
		ConfigDigest: cellDigest("processing", "B", k, 0, 1, policyNames(policy.ForProcessing()), o),
		Build: func(b int, seed int64) (sim.Instance, error) {
			return procInstance(k, b, 1, loadProcessing*procCapacity(k, 1), o, seed)
		},
	}
}

// panelProcC is Fig. 5(3): processing model, ratio vs per-queue speedup C
// at fixed offered rate (load crosses 1 at C = 3).
func panelProcC(o Options) *sim.Sweep {
	const k = 16
	return &sim.Sweep{
		Name:         "fig5.3",
		XLabel:       "C",
		Xs:           []int{1, 2, 3, 4, 5, 6, 8},
		Seeds:        o.Seeds,
		BaseSeed:     o.BaseSeed,
		Parallelism:  o.Parallelism,
		ConfigDigest: cellDigest("processing", "C", k, 200, 0, policyNames(policy.ForProcessing()), o),
		Build: func(c int, seed int64) (sim.Instance, error) {
			return procInstance(k, 200, c, loadSpeedupRef*procCapacity(k, 1), o, seed)
		},
	}
}

// valInstance assembles one value-model cell. In the value model n = k:
// the by-port special case identifies values with ports, and the uniform
// case keeps the same geometry for comparability. With spiky set, a few
// heavy sources emit slot-scale megabursts that exceed the buffer — the
// regime of Fig. 5(6) where large speedups let MVD shine.
func valInstance(k, b, c int, rate float64, label traffic.LabelMode, spiky bool, o Options, seed int64) (sim.Instance, error) {
	cfg := core.Config{
		Model:    core.ModelValue,
		Ports:    k,
		Buffer:   b,
		MaxLabel: k,
		Speedup:  c,
	}
	policies := policy.ForValueUniform()
	if label == traffic.LabelValueByPort {
		policies = policy.ForValueByPort()
	}
	mcfg := traffic.MMPPConfig{
		Sources:      o.Sources,
		POnOff:       pOnOff,
		POffOn:       pOffOn,
		Label:        label,
		Ports:        k,
		MaxLabel:     k,
		PortAffinity: true,
		Seed:         seed,
	}
	if spiky {
		// A handful of heavy sources, port-uniform in the uniform-value
		// case, so a megaburst floods the whole buffer at once.
		mcfg.Sources = max(4, o.Sources/5)
		mcfg.POnOff = 0.5
		mcfg.POffOn = 0.005
		mcfg.PortAffinity = label == traffic.LabelValueByPort
	}
	mcfg.LambdaOn = mcfg.LambdaForRate(rate)
	prov, err := traffic.NewMMPPProvider(mcfg, o.Slots)
	if err != nil {
		return sim.Instance{}, err
	}
	return sim.Instance{
		Cfg:        cfg,
		Policies:   policies,
		Provider:   prov,
		FlushEvery: o.FlushEvery,
	}, nil
}

// valDigestModel renders the value-model tag for cellDigest, folding in
// the label mode and the spiky-traffic switch.
func valDigestModel(label traffic.LabelMode, spiky bool) string {
	tag := fmt.Sprintf("value/%v", label)
	if spiky {
		tag += "/spiky"
	}
	return tag
}

// valRoster returns the competing roster for the label mode.
func valRoster(label traffic.LabelMode) []core.Policy {
	if label == traffic.LabelValueByPort {
		return policy.ForValueByPort()
	}
	return policy.ForValueUniform()
}

// panelValK is Fig. 5(4)/(7): value model, ratio vs k at a fixed offered
// rate, so growing k (= more ports) relieves congestion.
func panelValK(o Options, label traffic.LabelMode) *sim.Sweep {
	name := "fig5.4"
	if label == traffic.LabelValueByPort {
		name = "fig5.7"
	}
	const rate = loadValue * 16 // calibrated to load 1.5 at the middle point k=16
	return &sim.Sweep{
		Name:         name,
		XLabel:       "k",
		Xs:           []int{2, 4, 8, 16, 24, 32},
		Seeds:        o.Seeds,
		BaseSeed:     o.BaseSeed,
		Parallelism:  o.Parallelism,
		ConfigDigest: cellDigest(valDigestModel(label, false), "k", 0, 200, 1, policyNames(valRoster(label)), o),
		Build: func(k int, seed int64) (sim.Instance, error) {
			return valInstance(k, 200, 1, rate, label, false, o, seed)
		},
	}
}

// panelValB is Fig. 5(5)/(8): value model, ratio vs B.
func panelValB(o Options, label traffic.LabelMode) *sim.Sweep {
	name := "fig5.5"
	if label == traffic.LabelValueByPort {
		name = "fig5.8"
	}
	const k = 16
	return &sim.Sweep{
		Name:         name,
		XLabel:       "B",
		Xs:           []int{32, 64, 128, 256, 512, 1024, 2048},
		Seeds:        o.Seeds,
		BaseSeed:     o.BaseSeed,
		Parallelism:  o.Parallelism,
		ConfigDigest: cellDigest(valDigestModel(label, false), "B", k, 0, 1, policyNames(valRoster(label)), o),
		Build: func(b int, seed int64) (sim.Instance, error) {
			return valInstance(k, b, 1, loadValue*float64(k), label, false, o, seed)
		},
	}
}

// panelValC is Fig. 5(6)/(9): value model, ratio vs speedup C at fixed
// offered rate (load crosses 1 at C = 3); the regime where bursts fit in
// a slot's service but not in the buffer, letting MVD shine.
func panelValC(o Options, label traffic.LabelMode) *sim.Sweep {
	name := "fig5.6"
	if label == traffic.LabelValueByPort {
		name = "fig5.9"
	}
	const k = 16
	return &sim.Sweep{
		Name:         name,
		XLabel:       "C",
		Xs:           []int{1, 2, 4, 8, 12, 16},
		Seeds:        o.Seeds,
		BaseSeed:     o.BaseSeed,
		Parallelism:  o.Parallelism,
		ConfigDigest: cellDigest(valDigestModel(label, true), "C", k, 200, 0, policyNames(valRoster(label)), o),
		Build: func(c int, seed int64) (sim.Instance, error) {
			return valInstance(k, 200, c, spikyLoad*float64(k), label, true, o, seed)
		},
	}
}

// SortedPolicyNames returns the union of policy names across points, in
// stable order; convenient for report rendering.
func SortedPolicyNames(r *sim.SweepResult) []string {
	set := map[string]bool{}
	for _, p := range r.Points {
		for name := range p.Ratio {
			set[name] = true
		}
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
