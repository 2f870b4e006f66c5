// Package spec is the one compiler from a sweep description to
// simulation cells. An Experiment names a switch model, the swept
// parameter (k, B or C) and its values, the fixed parameters, the policy
// roster and the MMPP traffic; ToSweep compiles it into a sim.Sweep whose
// Build is Instance. The nine Fig. 5 panels (internal/experiments) are
// Experiment values, and users write their own in JSON
// (cmd/smbsim -spec experiment.json).
//
// A minimal spec:
//
//	{
//	  "name": "my-sweep",
//	  "model": "processing",
//	  "sweep": "B",
//	  "values": [64, 128, 256],
//	  "k": 16,
//	  "policies": ["LWD", "LQD"],
//	  "traffic": {"load": 2.0}
//	}
package spec

import (
	"encoding/json"
	"fmt"
	"io"

	"smbm/internal/core"
	"smbm/internal/hmath"
	"smbm/internal/policy"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// Traffic shapes the MMPP workload of a spec.
type Traffic struct {
	// Sources is the number of on-off sources (default 100).
	Sources int `json:"sources"`
	// Load is the offered load as a multiple of service capacity
	// (default 2.0). Mutually exclusive with Rate.
	Load float64 `json:"load"`
	// Rate is an absolute mean packets/slot; overrides Load when set.
	Rate float64 `json:"rate"`
	// POnOff and POffOn are the per-slot phase-flip probabilities
	// (defaults 0.1 and 0.01).
	POnOff float64 `json:"p_on_off"`
	// POffOn is the off-to-on flip probability (see POnOff).
	POffOn float64 `json:"p_off_on"`
	// Affinity pins each source to one port (default true).
	Affinity *bool `json:"affinity"`
	// PortZipf skews port popularity (Zipf exponent; 0 = uniform).
	PortZipf float64 `json:"port_zipf"`
}

// Experiment is a JSON-definable sweep.
type Experiment struct {
	// Name labels the report.
	Name string `json:"name"`
	// Model is "processing" or "value".
	Model string `json:"model"`
	// Sweep names the swept parameter: "k", "B" or "C".
	Sweep string `json:"sweep"`
	// Values are the swept values.
	Values []int `json:"values"`
	// K, B and C fix the non-swept parameters (defaults: k=16, B=200,
	// C=1). In the value model ports = k.
	K int `json:"k"`
	// B is the shared buffer size (see K).
	B int `json:"B"`
	// C is the per-port service capacity (see K).
	C int `json:"C"`
	// PortWork optionally overrides the contiguous 1..k works
	// (processing model; its length fixes the port count).
	PortWork []int `json:"port_work"`
	// Label selects value-model labeling: "uniform" (default) or
	// "by-port".
	Label string `json:"label"`
	// Policies are resolved by name; empty means the model's full
	// roster.
	Policies []string `json:"policies"`
	// Traffic shapes the workload.
	Traffic Traffic `json:"traffic"`
	// Slots, Seeds, FlushEvery and BaseSeed scale the runs (defaults
	// 4000 / 3 / 1000 / 1).
	Slots int `json:"slots"`
	// Seeds is the number of independent replications (see Slots).
	Seeds int `json:"seeds"`
	// FlushEvery bounds deferred-work backlogs (see Slots).
	FlushEvery int `json:"flush_every"`
	// BaseSeed offsets every replication's seed (see Slots).
	BaseSeed int64 `json:"base_seed"`
}

// Load parses a spec from JSON, rejecting unknown fields.
func Load(r io.Reader) (*Experiment, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var e Experiment
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := e.validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

func (e *Experiment) validate() error {
	switch {
	case e.Name == "":
		return fmt.Errorf("spec: missing name")
	case e.Model != "processing" && e.Model != "value" && e.Model != "combined":
		return fmt.Errorf("spec: model must be \"processing\", \"value\" or \"combined\", got %q", e.Model)
	case e.Sweep != "k" && e.Sweep != "B" && e.Sweep != "C":
		return fmt.Errorf("spec: sweep must be \"k\", \"B\" or \"C\", got %q", e.Sweep)
	case len(e.Values) == 0:
		return fmt.Errorf("spec: no sweep values")
	case e.Model == "value" && e.PortWork != nil:
		return fmt.Errorf("spec: port_work is a processing-model field")
	case e.Model == "value" && e.Label != "" && e.Label != "uniform" && e.Label != "by-port":
		return fmt.Errorf("spec: label must be \"uniform\" or \"by-port\", got %q", e.Label)
	case e.Model == "combined" && e.Label != "":
		return fmt.Errorf("spec: label is a value-model field")
	case e.Sweep == "k" && e.PortWork != nil:
		return fmt.Errorf("spec: cannot sweep k with explicit port_work")
	case e.Traffic.Load != 0 && e.Traffic.Rate != 0:
		return fmt.Errorf("spec: traffic.load and traffic.rate are mutually exclusive")
	}
	for _, v := range e.Values {
		if v < 1 {
			return fmt.Errorf("spec: sweep value %d < 1", v)
		}
	}
	if _, err := e.resolvePolicies(); err != nil {
		return err
	}
	return nil
}

// resolvePolicies maps names to policies for the spec's model. The
// default value-model roster follows the label: NHSTV is defined only
// for the value≡port case, so it joins the "by-port" roster alone.
func (e *Experiment) resolvePolicies() ([]core.Policy, error) {
	roster := policy.ForProcessing()
	byName := policy.ByName
	switch e.Model {
	case "value":
		roster = policy.ForValueUniform()
		if e.Label == "by-port" {
			roster = policy.ForValueByPort()
		}
		byName = policy.ValueByName
	case "combined":
		roster = policy.ForCombined()
		byName = policy.CombinedByName
	}
	if len(e.Policies) == 0 {
		return roster, nil
	}
	out := make([]core.Policy, 0, len(e.Policies))
	for _, name := range e.Policies {
		p := byName(name)
		if p == nil {
			return nil, fmt.Errorf("spec: unknown %s-model policy %q", e.Model, name)
		}
		out = append(out, p)
	}
	return out, nil
}

// params resolves the (k, B, C) triple for one swept value.
func (e *Experiment) params(x int) (k, b, c int) {
	k, b, c = e.K, e.B, e.C
	if k == 0 {
		k = 16
	}
	if b == 0 {
		b = 200
	}
	if c == 0 {
		c = 1
	}
	switch e.Sweep {
	case "k":
		k = x
	case "B":
		b = x
	case "C":
		c = x
	}
	return k, b, c
}

// scale resolves the run-scale fields to their defaults.
func (e *Experiment) scale() (slots, seeds, flush int, baseSeed int64) {
	slots, seeds, flush, baseSeed = e.Slots, e.Seeds, e.FlushEvery, e.BaseSeed
	if slots == 0 {
		slots = 4000
	}
	if seeds == 0 {
		seeds = 3
	}
	if flush == 0 {
		flush = 1000
	}
	if baseSeed == 0 {
		baseSeed = 1
	}
	return slots, seeds, flush, baseSeed
}

// ToSweep validates the spec and compiles it into a runnable sweep
// whose Build is Instance.
func (e *Experiment) ToSweep() (*sim.Sweep, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	_, seeds, _, baseSeed := e.scale()
	// The whole spec re-marshaled is its own canonical cell-config
	// digest: struct field order is fixed, so equal specs render equal
	// strings for the sweep checkpoint fingerprint.
	digest, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("spec: digest: %w", err)
	}
	return &sim.Sweep{
		Name:         e.Name,
		XLabel:       e.Sweep,
		Xs:           e.Values,
		Seeds:        seeds,
		BaseSeed:     baseSeed,
		ConfigDigest: string(digest),
		Build:        e.Instance,
	}, nil
}

// Instance builds the cell at swept value x: the switch configuration,
// the policy roster and the MMPP provider seeded with seed.
func (e *Experiment) Instance(x int, seed int64) (sim.Instance, error) {
	policies, err := e.resolvePolicies()
	if err != nil {
		return sim.Instance{}, err
	}
	slots, _, flush, _ := e.scale()
	k, b, c := e.params(x)
	cfg, mcfg := e.buildConfigs(k, b, c, seed)
	prov, err := traffic.NewMMPPProvider(mcfg, slots)
	if err != nil {
		return sim.Instance{}, err
	}
	return sim.Instance{
		Cfg:        cfg,
		Policies:   policies,
		Provider:   prov,
		FlushEvery: flush,
	}, nil
}

// buildConfigs assembles the switch and traffic configurations for one
// cell.
func (e *Experiment) buildConfigs(k, b, c int, seed int64) (core.Config, traffic.MMPPConfig) {
	t := e.Traffic
	if t.Sources == 0 {
		t.Sources = 100
	}
	if t.POnOff == 0 {
		t.POnOff = 0.1
	}
	if t.POffOn == 0 {
		t.POffOn = 0.01
	}
	affinity := true
	if t.Affinity != nil {
		affinity = *t.Affinity
	}
	load := t.Load
	if load == 0 && t.Rate == 0 {
		load = 2.0
	}

	var cfg core.Config
	mcfg := traffic.MMPPConfig{
		Sources:      t.Sources,
		POnOff:       t.POnOff,
		POffOn:       t.POffOn,
		MaxLabel:     k,
		PortAffinity: affinity,
		PortZipf:     t.PortZipf,
		Seed:         seed,
	}
	var capacity float64
	if e.Model == "processing" || e.Model == "combined" {
		works := e.PortWork
		if works == nil {
			// Contiguous works serve C·H_k packets per slot. Harmonic sums
			// backward, so at k = 16 and 32 it differs from
			// InverseWorkSum(1..k) in the last bit.
			works = core.ContiguousWorks(k)
			capacity = float64(c) * hmath.Harmonic(k)
		} else {
			capacity = float64(c) * hmath.InverseWorkSum(works)
		}
		model, label := core.ModelProcessing, traffic.LabelWorkByPort
		if e.Model == "combined" {
			model, label = core.ModelCombined, traffic.LabelWorkValue
		}
		cfg = core.Config{
			Model:    model,
			Ports:    len(works),
			Buffer:   b,
			MaxLabel: k,
			Speedup:  c,
			PortWork: works,
		}
		mcfg.Label = label
		mcfg.Ports = len(works)
		mcfg.PortWork = works
	} else {
		cfg = core.Config{
			Model:    core.ModelValue,
			Ports:    k,
			Buffer:   b,
			MaxLabel: k,
			Speedup:  c,
		}
		mcfg.Label = traffic.LabelValueUniform
		if e.Label == "by-port" {
			mcfg.Label = traffic.LabelValueByPort
		}
		mcfg.Ports = k
		capacity = float64(c) * float64(k)
	}
	rate := t.Rate
	if rate == 0 {
		rate = load * capacity
	}
	mcfg.LambdaOn = mcfg.LambdaForRate(rate)
	return cfg, mcfg
}
