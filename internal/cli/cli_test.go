package cli

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"smbm/internal/adversary"
	"smbm/internal/experiments"
	"smbm/internal/sim"
)

func smallOpts() experiments.Options {
	return experiments.Options{
		Slots:      400,
		Seeds:      1,
		Sources:    30,
		FlushEvery: 200,
		BaseSeed:   1,
	}
}

func TestPanelsSingle(t *testing.T) {
	var buf bytes.Buffer
	err := Panels(context.Background(), &buf, PanelOptions{Experiment: "fig5.1", Opts: smallOpts()})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig5.1", "LWD", "Greedy", "competitive ratio vs k"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPanelsCSV(t *testing.T) {
	var buf bytes.Buffer
	err := Panels(context.Background(), &buf, PanelOptions{Experiment: "fig5.1", Opts: smallOpts(), CSV: true})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "k,Greedy_mean") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if strings.Contains(out, "==") {
		t.Errorf("CSV mode printed a table header:\n%s", out)
	}
}

func TestPanelsPlot(t *testing.T) {
	var buf bytes.Buffer
	err := Panels(context.Background(), &buf, PanelOptions{Experiment: "fig5.1", Opts: smallOpts(), Plot: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean competitive ratio vs k") {
		t.Errorf("plot missing:\n%s", buf.String())
	}
}

func TestPanelsArch(t *testing.T) {
	var buf bytes.Buffer
	err := Panels(context.Background(), &buf, PanelOptions{Experiment: "arch", Opts: smallOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1Q-PQ-pushout") {
		t.Errorf("arch table missing:\n%s", buf.String())
	}
}

func TestPanelsLatency(t *testing.T) {
	var buf bytes.Buffer
	if err := Panels(context.Background(), &buf, PanelOptions{Experiment: "latency", Opts: smallOpts()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "delay/throughput trade-off") {
		t.Errorf("latency output:\n%s", buf.String())
	}
}

// TestPanelsRefusesIgnoredFlags: an option no run of the requested
// experiment honours is an error naming its flag, before anything runs.
func TestPanelsRefusesIgnoredFlags(t *testing.T) {
	for _, c := range []struct {
		experiment, flag string
		set              func(*PanelOptions)
	}{
		{"arch", "-checkpoint", func(o *PanelOptions) { o.Checkpoint = t.TempDir() }},
		{"latency", "-obs", func(o *PanelOptions) { o.Obs = true }},
		{"latency", "-trace-events", func(o *PanelOptions) { o.TraceEvents = 8 }},
		{"arch", "-csv", func(o *PanelOptions) { o.CSV = true }},
		{"latency", "-plot", func(o *PanelOptions) { o.Plot = true }},
	} {
		o := PanelOptions{Experiment: c.experiment, Opts: smallOpts()}
		c.set(&o)
		var buf bytes.Buffer
		err := Panels(context.Background(), &buf, o)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s with %s: err = %v, want one naming %s", c.experiment, c.flag, err, c.flag)
		}
		if buf.Len() != 0 {
			t.Errorf("%s with %s: wrote output before refusing:\n%s", c.experiment, c.flag, buf.String())
		}
	}
	// A scale preset fills every scale option, so a flag those runs
	// ignore is told by whether it was set, not by its value.
	for _, c := range []struct{ experiment, flag string }{
		{"arch", "seeds"},
		{"latency", "seeds"},
	} {
		err := RefuseIgnoredFlags(c.experiment, false, map[string]bool{c.flag: true, "slots": true, "workers": true})
		if err == nil || !strings.Contains(err.Error(), "-"+c.flag) {
			t.Errorf("%s with -%s: err = %v, want one naming -%s", c.experiment, c.flag, err, c.flag)
		}
	}
}

// TestRefuseIgnoredFlags: a -spec run refuses every scale flag, naming
// it, and accepts the flags it honours; -seeds is refused only where
// it is ignored.
func TestRefuseIgnoredFlags(t *testing.T) {
	for _, flag := range []string{"experiment", "scale", "slots", "seeds", "sources", "flush", "seed"} {
		err := RefuseIgnoredFlags("", true, map[string]bool{flag: true, "csv": true})
		if err == nil || !strings.Contains(err.Error(), "-"+flag+" does not apply to -spec") {
			t.Errorf("-spec with -%s: err = %v, want one naming -%s", flag, err, flag)
		}
	}
	honoured := map[string]bool{"workers": true, "csv": true, "plot": true, "checkpoint": true, "obs": true}
	if err := RefuseIgnoredFlags("", true, honoured); err != nil {
		t.Errorf("-spec with the flags it honours: %v", err)
	}
	for _, experiment := range []string{"", "fig5.1", "fig5.4"} {
		if err := RefuseIgnoredFlags(experiment, false, map[string]bool{"seeds": true, "slots": true}); err != nil {
			t.Errorf("-experiment %q with -seeds: %v", experiment, err)
		}
	}
}

// TestPanelsRefusesNegativeScale: a negative -slots, -seeds, -sources,
// -flush, -workers or -trace-events is an error naming
// the flag before any cell runs, on a panel, a non-sweep experiment and
// a spec alike.
func TestPanelsRefusesNegativeScale(t *testing.T) {
	for _, c := range []struct {
		flag string
		set  func(*PanelOptions)
	}{
		{"-slots", func(o *PanelOptions) { o.Opts.Slots = -5 }},
		{"-seeds", func(o *PanelOptions) { o.Opts.Seeds = -1 }},
		{"-sources", func(o *PanelOptions) { o.Opts.Sources = -100 }},
		{"-flush", func(o *PanelOptions) { o.Opts.FlushEvery = -3 }},
		{"-workers", func(o *PanelOptions) { o.Opts.Parallelism = -3 }},
		{"-trace-events", func(o *PanelOptions) { o.TraceEvents = -4 }},
	} {
		for _, experiment := range []string{"fig5.1", "arch", "spec"} {
			o := PanelOptions{Experiment: experiment, Opts: smallOpts(), CSV: experiment != "arch"}
			c.set(&o)
			o.Progress = func(p sim.SweepProgress) {
				t.Errorf("%s with %s: cell x=%d ran", experiment, c.flag, p.X)
			}
			var buf bytes.Buffer
			var err error
			if experiment == "spec" {
				o.Experiment = ""
				err = RunSpec(context.Background(), &buf, strings.NewReader("{}"), o)
			} else {
				err = Panels(context.Background(), &buf, o)
			}
			if err == nil || !strings.Contains(err.Error(), c.flag+" ") || !strings.Contains(err.Error(), "negative") {
				t.Errorf("%s with %s: err = %v, want one naming %s as negative", experiment, c.flag, err, c.flag)
			}
			if buf.Len() != 0 {
				t.Errorf("%s with %s: wrote output before refusing:\n%s", experiment, c.flag, buf.String())
			}
		}
	}
}

func TestPanelsUnknown(t *testing.T) {
	if err := Panels(context.Background(), &bytes.Buffer{}, PanelOptions{Experiment: "fig9.9"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunSpec(t *testing.T) {
	const specJSON = `{
	  "name": "cli-spec",
	  "model": "processing",
	  "sweep": "C",
	  "values": [1, 2],
	  "k": 4, "B": 32,
	  "policies": ["LWD", "Greedy"],
	  "slots": 300, "seeds": 1,
	  "traffic": {"sources": 10, "load": 2.0}
	}`
	var buf bytes.Buffer
	if err := RunSpec(context.Background(), &buf, strings.NewReader(specJSON), PanelOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cli-spec", "LWD", "Greedy", "competitive ratio vs C"} {
		if !strings.Contains(out, want) {
			t.Errorf("spec output missing %q:\n%s", want, out)
		}
	}
	if err := RunSpec(context.Background(), &bytes.Buffer{}, strings.NewReader("{"), PanelOptions{}); err == nil {
		t.Error("malformed spec accepted")
	}
}

func TestLowerBoundsSingle(t *testing.T) {
	var buf bytes.Buffer
	err := LowerBounds(&buf, LowerBoundOptions{
		Theorem: "2",
		Params:  adversary.Params{K: 4, B: 80, Rounds: 1, Warmup: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Theorem 2") || !strings.Contains(out, "NEST") {
		t.Errorf("output:\n%s", out)
	}
	if !strings.Contains(out, "4.000") { // n = 4 predicted and measured
		t.Errorf("expected ratio 4.000 in:\n%s", out)
	}
}

func TestLowerBoundsValidation(t *testing.T) {
	err := LowerBounds(&bytes.Buffer{}, LowerBoundOptions{Params: adversary.Params{K: 9}})
	if err == nil {
		t.Error("params without theorem accepted")
	}
	if err := LowerBounds(&bytes.Buffer{}, LowerBoundOptions{Theorem: "7"}); err == nil {
		t.Error("theorem 7 accepted (it is an upper bound)")
	}
}

func TestConjecture(t *testing.T) {
	var buf bytes.Buffer
	err := Conjecture(&buf, ConjectureOptions{
		Policies: []string{"Greedy"},
		Trials:   40, Climb: 10, Slots: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Greedy: worst certified ratio") {
		t.Errorf("output:\n%s", out)
	}
	if !strings.Contains(out, "witness trace:") {
		t.Errorf("greedy hunt found no witness:\n%s", out)
	}
	if err := Conjecture(&bytes.Buffer{}, ConjectureOptions{
		Policies: []string{"NOPE"}, Trials: 1, Slots: 2,
	}); err == nil {
		t.Error("unknown policy accepted")
	}
	// Default targets LWD and MRD.
	buf.Reset()
	if err := Conjecture(&buf, ConjectureOptions{Trials: 5, Climb: 2, Slots: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LWD:") || !strings.Contains(buf.String(), "MRD:") {
		t.Errorf("default hunt output:\n%s", buf.String())
	}
}

func TestGenerateStatsReplayPipeline(t *testing.T) {
	var trace bytes.Buffer
	gen := GenerateOptions{
		Slots: 500, Ports: 4, Sources: 20, Mode: "work", Affinity: true, Seed: 3,
	}
	if err := Generate(&trace, gen); err != nil {
		t.Fatal(err)
	}
	traceText := trace.String()

	var stats bytes.Buffer
	if err := Stats(&stats, strings.NewReader(traceText)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"slots:        500", "packets:", "mean rate:"} {
		if !strings.Contains(stats.String(), want) {
			t.Errorf("stats missing %q:\n%s", want, stats.String())
		}
	}

	var replay bytes.Buffer
	err := Replay(&replay, strings.NewReader(traceText), ReplayOptions{
		Policy: "LWD", Ports: 4, Buffer: 32, Mode: "work",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"policy:       LWD", "ratio:"} {
		if !strings.Contains(replay.String(), want) {
			t.Errorf("replay missing %q:\n%s", want, replay.String())
		}
	}
}

func TestGenerateValueModes(t *testing.T) {
	for _, mode := range []string{"value", "value-by-port"} {
		var buf bytes.Buffer
		err := Generate(&buf, GenerateOptions{Slots: 50, Ports: 4, Sources: 10, Mode: mode, Seed: 1})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		var replay bytes.Buffer
		err = Replay(&replay, strings.NewReader(buf.String()), ReplayOptions{
			Policy: "MRD", Ports: 4, Mode: mode,
		})
		if err != nil {
			t.Fatalf("replay %s: %v", mode, err)
		}
	}
}

// TestGenerateRejectsBadMode: an unknown -mode, the retired combined
// model's "work-value" included, is refused by name.
func TestGenerateRejectsBadMode(t *testing.T) {
	for _, mode := range []string{"bogus", "work-value"} {
		err := Generate(&bytes.Buffer{}, GenerateOptions{Slots: 1, Ports: 2, Sources: 1, Mode: mode})
		if want := fmt.Sprintf("unknown -mode %q", mode); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("mode %s: err = %v, want %s", mode, err, want)
		}
	}
}

func TestReplayValidation(t *testing.T) {
	trace := "# smbm-trace v1 slots=1\n0 0 1 1\n"
	cases := []ReplayOptions{
		{Policy: "LWD", Ports: 2, Mode: "bogus"},
		{Policy: "LWD", Ports: 2, Mode: "work-value"}, // the retired combined model
		{Policy: "NOPE", Ports: 2, Mode: "work"},
		{Policy: "MRD", Ports: 2, Mode: "work"}, // value policy in work mode
	}
	for _, o := range cases {
		if err := Replay(&bytes.Buffer{}, strings.NewReader(trace), o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	if err := Stats(&bytes.Buffer{}, strings.NewReader("garbage")); err == nil {
		t.Error("stats on garbage accepted")
	}
}

// TestTracegenRefusesNegativeFlags: Generate refuses a negative -slots
// (which sized a slice below zero) or a negative or non-finite -rate
// (which surfaced as the generator's derived on-rate), and Replay a
// negative -buffer or -flush (which silently turned periodic flushouts
// off), naming the flag before any output is written.
func TestTracegenRefusesNegativeFlags(t *testing.T) {
	trace := "# smbm-trace v1 slots=1\n0 0 1 1\n"
	for _, c := range []struct {
		flag string
		run  func(w io.Writer) error
	}{
		{"-slots", func(w io.Writer) error {
			return Generate(w, GenerateOptions{Slots: -5, Ports: 4, Sources: 5, Mode: "work", Seed: 1})
		}},
		{"-ports", func(w io.Writer) error {
			return Generate(w, GenerateOptions{Slots: 10, Ports: -3, Sources: 5, Mode: "work", Seed: 1})
		}},
		{"-rate", func(w io.Writer) error {
			return Generate(w, GenerateOptions{Slots: 10, Ports: 4, Sources: 5, Rate: -2, Mode: "work", Seed: 1})
		}},
		{"-rate", func(w io.Writer) error {
			return Generate(w, GenerateOptions{Slots: 10, Ports: 4, Sources: 5, Rate: math.NaN(), Mode: "work", Seed: 1})
		}},
		{"-rate", func(w io.Writer) error {
			return Generate(w, GenerateOptions{Slots: 10, Ports: 4, Sources: 5, Rate: math.Inf(1), Mode: "work", Seed: 1})
		}},
		{"-buffer", func(w io.Writer) error {
			return Replay(w, strings.NewReader(trace), ReplayOptions{Policy: "LWD", Ports: 2, Buffer: -5, Mode: "work"})
		}},
		{"-flush", func(w io.Writer) error {
			return Replay(w, strings.NewReader(trace), ReplayOptions{Policy: "LWD", Ports: 2, Flush: -5, Mode: "work"})
		}},
	} {
		var out bytes.Buffer
		err := c.run(&out)
		if err == nil || !strings.Contains(err.Error(), c.flag+" ") || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%s: err = %v, want one naming %s as negative", c.flag, err, c.flag)
		}
		if out.Len() > 0 {
			t.Errorf("%s: wrote %q before refusing", c.flag, out.String())
		}
	}
}

// TestGenerateRefusesBinaryOverflow: with -binary, Generate refuses a
// label above 255 (-k, or -ports when -k defaults to it) or more ports
// than the record's uint16 port field holds, naming the flag before
// any output is written, where it used to fail at the first
// out-of-range packet. The largest shapes the format holds pass.
func TestGenerateRefusesBinaryOverflow(t *testing.T) {
	for _, c := range []struct {
		flag string
		o    GenerateOptions
	}{
		{"-k", GenerateOptions{Slots: 10, Ports: 4, MaxLabel: 256, Sources: 5, Mode: "value"}},
		{"-k", GenerateOptions{Slots: 10, Ports: 256, MaxLabel: 256, Sources: 5, Mode: "work"}},
		{"-ports", GenerateOptions{Slots: 10, Ports: 256, Sources: 5, Mode: "work"}},
		{"-ports", GenerateOptions{Slots: 10, Ports: 1<<16 + 1, MaxLabel: 4, Sources: 5, Mode: "value"}},
	} {
		c.o.Binary = true
		var out bytes.Buffer
		err := Generate(&out, c.o)
		if err == nil || !strings.Contains(err.Error(), c.flag+" ") {
			t.Errorf("%+v: err = %v, want one naming %s", c.o, err, c.flag)
		}
		if out.Len() > 0 {
			t.Errorf("%+v: wrote %d bytes before refusing", c.o, out.Len())
		}
	}
	for _, o := range []GenerateOptions{
		{Slots: 10, Ports: 255, Sources: 5, Mode: "work", Binary: true},
		{Slots: 10, Ports: 1 << 16, MaxLabel: 255, Sources: 5, Mode: "value", Binary: true},
	} {
		if err := Generate(io.Discard, o); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
}

// TestRefuseTracegenFlags: every flag an action ignores is refused,
// naming it and the action, and the flags each action honours pass.
func TestRefuseTracegenFlags(t *testing.T) {
	honoured := map[string][]string{
		"generate": {"slots", "ports", "k", "sources", "rate", "mode", "affinity", "seed", "binary"},
		"stats":    {"stats", "in"},
		"replay":   {"replay", "ports", "k", "mode", "buffer", "flush", "in"},
	}
	for _, c := range []struct{ action, flag, want string }{
		{"generate", "buffer", "-buffer applies only to -stats or -replay"},
		{"generate", "flush", "-flush applies only to -stats or -replay"},
		{"generate", "in", "-in applies only to -stats or -replay"},
		{"stats", "slots", "-slots does not apply to -stats"},
		{"stats", "sources", "-sources does not apply to -stats"},
		{"stats", "rate", "-rate does not apply to -stats"},
		{"stats", "seed", "-seed does not apply to -stats"},
		{"stats", "affinity", "-affinity does not apply to -stats"},
		{"stats", "binary", "-binary does not apply to -stats"},
		{"stats", "ports", "-ports does not apply to -stats"},
		{"stats", "k", "-k does not apply to -stats"},
		{"stats", "mode", "-mode does not apply to -stats"},
		{"stats", "buffer", "-buffer does not apply to -stats"},
		{"stats", "flush", "-flush does not apply to -stats"},
		{"stats", "replay", "-replay does not apply to -stats"},
		{"replay", "slots", "-slots does not apply to -replay"},
		{"replay", "sources", "-sources does not apply to -replay"},
		{"replay", "rate", "-rate does not apply to -replay"},
		{"replay", "seed", "-seed does not apply to -replay"},
		{"replay", "affinity", "-affinity does not apply to -replay"},
		{"replay", "binary", "-binary does not apply to -replay"},
	} {
		set := map[string]bool{c.flag: true}
		for _, name := range honoured[c.action] {
			set[name] = true
		}
		if err := RefuseTracegenFlags(c.action, set); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s with -%s: err = %v, want one containing %q", c.action, c.flag, err, c.want)
		}
	}
	for action, flags := range honoured {
		set := map[string]bool{}
		for _, name := range flags {
			set[name] = true
		}
		if err := RefuseTracegenFlags(action, set); err != nil {
			t.Errorf("%s with the flags it honours: %v", action, err)
		}
	}
}

// TestGenerateGolden pins Generate's bytes, text and binary, in every
// mode: streaming the generator straight to the writer must emit
// exactly what recording the whole trace first did.
func TestGenerateGolden(t *testing.T) {
	golden := map[string][2]string{ // mode -> sha256 of {text, binary}
		"work":          {"fbad96e70b9792ebe80d81bbea11888728502bb7ff18769e83c37ba8c41b5106", "fe09d0e25606b5e02dc6f5d0e204f8341ad2ddced1e30e173aec0b8aa2f9fb47"},
		"value":         {"57c73773ce25c096843826b403a767ea49ab62648c0b22e6f21b8da90ccfc8b8", "85dedf17026cb51116f4063fbc8e31aa384814a9548aaee355afacd8a167727a"},
		"value-by-port": {"decb27b5a99eb1407b03e8627f1b8b4e5d1f5543a6c71e44dd827274f091bcd8", "2e1ea3fd4f60cdf570a91e84ec32f0712486d5742a5820c370e62eac6e033f33"},
	}
	for mode, want := range golden {
		for i, binary := range []bool{false, true} {
			o := GenerateOptions{Slots: 300, Ports: 4, Sources: 20, Mode: mode, Affinity: mode != "value", Seed: 5, Binary: binary}
			h := sha256.New()
			if err := Generate(h, o); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[i] {
				t.Errorf("mode %s binary %v: sha256 %s, want %s", mode, binary, got, want[i])
			}
		}
	}
}

// TestWorkModeRejectsMismatchedK: in work mode the works are 1..ports,
// so Generate and Replay refuse an explicit -k other than -ports rather
// than silently ignoring it.
func TestWorkModeRejectsMismatchedK(t *testing.T) {
	trace := "# smbm-trace v1 slots=1\n0 0 1 1\n"
	for _, k := range []int{4, 20} {
		err := Generate(&bytes.Buffer{}, GenerateOptions{Slots: 10, Ports: 8, MaxLabel: k, Sources: 5, Mode: "work", Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "-k") {
			t.Errorf("Generate -k %d: err = %v, want one naming -k", k, err)
		}
		err = Replay(&bytes.Buffer{}, strings.NewReader(trace), ReplayOptions{Policy: "LWD", Ports: 8, MaxLabel: k, Mode: "work"})
		if err == nil || !strings.Contains(err.Error(), "-k") {
			t.Errorf("Replay -k %d: err = %v, want one naming -k", k, err)
		}
	}
	for _, o := range []GenerateOptions{
		{Slots: 10, Ports: 8, MaxLabel: 8, Sources: 5, Mode: "work", Seed: 1},
		{Slots: 10, Ports: 8, Sources: 5, Mode: "work", Seed: 1},
	} {
		if err := Generate(&bytes.Buffer{}, o); err != nil {
			t.Errorf("Generate %+v: %v", o, err)
		}
	}
	if err := Replay(&bytes.Buffer{}, strings.NewReader(trace), ReplayOptions{Policy: "LWD", Ports: 8, MaxLabel: 8, Mode: "work"}); err != nil {
		t.Errorf("Replay -k = -ports: %v", err)
	}
}
