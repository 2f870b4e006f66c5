package cli

import (
	"errors"
	"fmt"
	"io"
	"math"

	"smbm/internal/core"
	"smbm/internal/policy"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// tracegenIgnored lists, per tracegen action, the flags that action
// would silently ignore: generation reads no trace and replays
// nothing, -stats only reads one, and -replay reads one instead of
// generating it. The keys are the action names RefuseTracegenFlags
// takes.
var tracegenIgnored = map[string][]string{
	"generate": {"buffer", "flush", "in"},
	"stats":    {"slots", "sources", "rate", "seed", "affinity", "binary", "ports", "k", "mode", "buffer", "flush", "replay"},
	"replay":   {"slots", "sources", "rate", "seed", "affinity", "binary"},
}

// RefuseTracegenFlags refuses an explicitly set tracegen flag that
// action ("generate", "stats" or "replay") would silently ignore,
// naming the flag. set holds the flags given on the command line,
// named without their dash as flag.Visit names them.
func RefuseTracegenFlags(action string, set map[string]bool) error {
	for _, name := range tracegenIgnored[action] {
		if !set[name] {
			continue
		}
		if action == "generate" {
			return fmt.Errorf("cli: -%s applies only to -stats or -replay, not to trace generation", name)
		}
		return fmt.Errorf("cli: -%s does not apply to -%s", name, action)
	}
	return nil
}

// GenerateOptions drives Generate (cmd/tracegen).
type GenerateOptions struct {
	// Slots, Ports, MaxLabel and Sources shape the trace.
	Slots, Ports, MaxLabel, Sources int
	// Rate is the mean packets per slot (0 = 1.5x ports).
	Rate float64
	// Mode selects labeling: "work", "value" or "value-by-port".
	Mode string
	// Affinity pins each source to one port.
	Affinity bool
	// Seed makes the trace reproducible.
	Seed int64
	// Binary selects the compact binary trace format (default: text).
	Binary bool
}

// buildMMPP assembles the generator config for the options.
func (o GenerateOptions) buildMMPP() (traffic.MMPPConfig, error) {
	maxLabel := o.MaxLabel
	if maxLabel == 0 {
		maxLabel = o.Ports
	}
	rate := o.Rate
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return traffic.MMPPConfig{}, fmt.Errorf("cli: -rate %v is not a finite non-negative rate", rate)
	}
	if rate == 0 {
		rate = 1.5 * float64(o.Ports)
	}
	cfg := traffic.MMPPConfig{
		Sources:      o.Sources,
		POnOff:       0.1,
		POffOn:       0.01,
		Ports:        o.Ports,
		MaxLabel:     maxLabel,
		PortAffinity: o.Affinity,
		Seed:         o.Seed,
	}
	switch o.Mode {
	case "work":
		if err := checkWorkLabel(o.MaxLabel, o.Ports); err != nil {
			return cfg, err
		}
		cfg.Label = traffic.LabelWorkByPort
		cfg.PortWork = core.ContiguousWorks(o.Ports)
		cfg.MaxLabel = o.Ports
	case "value":
		cfg.Label = traffic.LabelValueUniform
	case "value-by-port":
		cfg.Label = traffic.LabelValueByPort
	default:
		return cfg, fmt.Errorf("unknown -mode %q", o.Mode)
	}
	cfg.LambdaOn = cfg.LambdaForRate(rate)
	return cfg, nil
}

// checkBinaryFields refuses, by flag name, a trace shape whose packets
// the binary format's fixed-width records cannot hold: port indices
// above traffic.MaxBinaryPort or labels above traffic.MaxBinaryLabel.
// A zero maxLabel is -k left at its default, -ports.
func checkBinaryFields(ports, maxLabel int) error {
	if ports-1 > traffic.MaxBinaryPort {
		return fmt.Errorf("cli: -ports %d exceeds the binary format's %d ports", ports, traffic.MaxBinaryPort+1)
	}
	if maxLabel == 0 && ports > traffic.MaxBinaryLabel {
		return fmt.Errorf("cli: -ports %d, the default -k, exceeds the binary format's largest label %d", ports, traffic.MaxBinaryLabel)
	}
	if maxLabel > traffic.MaxBinaryLabel {
		return fmt.Errorf("cli: -k %d exceeds the binary format's largest label %d", maxLabel, traffic.MaxBinaryLabel)
	}
	return nil
}

// checkWorkLabel rejects an explicit -k in work mode that differs from
// -ports: there the works are contiguous, 1 through ports, so the
// largest label is fixed.
func checkWorkLabel(maxLabel, ports int) error {
	if maxLabel != 0 && maxLabel != ports {
		return fmt.Errorf("-k %d must equal -ports %d in -mode work (works are 1..ports)", maxLabel, ports)
	}
	return nil
}

// Generate writes a synthetic trace to w, slot by slot as the
// generator draws it, so memory stays O(burst) at any trace length.
func Generate(w io.Writer, o GenerateOptions) error {
	if err := checkNonNegative(flagValue{"-slots", o.Slots}, flagValue{"-ports", o.Ports}, flagValue{"-k", o.MaxLabel}); err != nil {
		return err
	}
	cfg, err := o.buildMMPP()
	if err != nil {
		return err
	}
	if o.Binary {
		if err := checkBinaryFields(o.Ports, o.MaxLabel); err != nil {
			return err
		}
	}
	gen, err := traffic.NewMMPP(cfg)
	if err != nil {
		return err
	}
	if o.Binary {
		return traffic.WriteBinary(w, gen, o.Slots)
	}
	return traffic.WriteText(w, gen, o.Slots)
}

// Stats reads a trace (text or binary) from r and writes summary
// statistics to w. The trace is streamed in a single pass, so
// arbitrarily long files are summarized in O(peak burst) memory.
func Stats(w io.Writer, r io.Reader) error {
	cur, slots, err := traffic.StreamAny(r)
	if err != nil {
		return err
	}
	defer cur.Close()
	var (
		packets, work, value int
		peak                 int
	)
	for t := 0; t < slots; t++ {
		slot := cur.Next()
		packets += len(slot)
		if len(slot) > peak {
			peak = len(slot)
		}
		for _, p := range slot {
			work += p.Work
			value += p.Value
		}
	}
	if err := cur.Err(); err != nil {
		return err
	}
	rate := 0.0
	if slots > 0 {
		rate = float64(packets) / float64(slots)
	}
	_, err = fmt.Fprintf(w, `slots:        %d
packets:      %d
mean rate:    %.3f pkts/slot
peak burst:   %d pkts/slot
total work:   %d cycles
total value:  %d
`, slots, packets, rate, peak, work, value)
	return err
}

// ReplayOptions drives Replay (cmd/tracegen -replay).
type ReplayOptions struct {
	// Policy names the policy to replay under.
	Policy string
	// Ports, MaxLabel, Buffer and Flush shape the switch.
	Ports, MaxLabel, Buffer, Flush int
	// Mode matches GenerateOptions.Mode.
	Mode string
}

// Replay streams a trace (text or binary) from r, drives the named
// policy and the OPT proxy over it in one pass, a window of slots at a
// time, and writes the outcome to w. Memory stays O(window) at any
// trace length.
func Replay(w io.Writer, r io.Reader, o ReplayOptions) error {
	if err := checkNonNegative(flagValue{"-ports", o.Ports}, flagValue{"-k", o.MaxLabel}, flagValue{"-buffer", o.Buffer}, flagValue{"-flush", o.Flush}); err != nil {
		return err
	}
	maxLabel := o.MaxLabel
	if maxLabel == 0 {
		maxLabel = o.Ports
	}
	buffer := o.Buffer
	if buffer == 0 {
		buffer = 2 * o.Ports
	}
	cfg := core.Config{Ports: o.Ports, Buffer: buffer, MaxLabel: maxLabel, Speedup: 1}
	var pol core.Policy
	switch o.Mode {
	case "work":
		if err := checkWorkLabel(o.MaxLabel, o.Ports); err != nil {
			return err
		}
		cfg.Model = core.ModelProcessing
		cfg.PortWork = core.ContiguousWorks(o.Ports)
		cfg.MaxLabel = o.Ports
		pol = policy.ByName(o.Policy)
	case "value", "value-by-port":
		cfg.Model = core.ModelValue
		pol = policy.ValueByName(o.Policy)
	default:
		return fmt.Errorf("unknown -mode %q", o.Mode)
	}
	if pol == nil {
		return fmt.Errorf("unknown policy %q for mode %q", o.Policy, o.Mode)
	}
	cur, slots, err := traffic.StreamAny(r)
	if err != nil {
		return err
	}
	src := &streamOnce{cur: cur, slots: slots}
	results, err := sim.Instance{Cfg: cfg, Policies: []core.Policy{pol}, Provider: src, FlushEvery: o.Flush}.Run()
	if err != nil {
		return err
	}
	res := results[0]
	st := res.Stats
	if _, err := fmt.Fprintf(w, `policy:       %s (%s model)
arrived:      %d
transmitted:  %d packets (objective %d)
dropped:      %d, pushed out: %d
opt proxy:    %d
`, res.Policy, cfg.Model, st.Arrived, st.Transmitted, res.Throughput, st.Dropped, st.PushedOut, res.OptThroughput); err != nil {
		return err
	}
	if res.Throughput > 0 {
		_, err = fmt.Fprintf(w, "ratio:        %.4f\n", res.Ratio)
	}
	return err
}

// streamOnce is the Provider over a trace read once from a stream (a
// file or stdin), which cannot be rewound: its first Open hands out the
// cursor, and any later Open fails. A sim.Instance run opens its
// Provider exactly once. The cursor owns no resources (the reader
// belongs to the caller), so a run that fails before its Open leaks
// nothing.
type streamOnce struct {
	cur   traffic.Cursor
	slots int
}

// Slots implements traffic.Provider.
func (p *streamOnce) Slots() int { return p.slots }

// Open implements traffic.Provider, once.
func (p *streamOnce) Open() (traffic.Cursor, error) {
	if p.cur == nil {
		return nil, errors.New("cli: streamOnce: the trace stream was already opened")
	}
	cur := p.cur
	p.cur = nil
	return cur, nil
}
