package cli

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"smbm/internal/adversary"
	"smbm/internal/experiments"
	"smbm/internal/faults"
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
	blackout, err := faults.ParseSpec("blackout")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		experiment, flag string
		set              func(*PanelOptions)
	}{
		{"arch", "-checkpoint", func(o *PanelOptions) { o.Checkpoint = t.TempDir() }},
		{"latency", "-cell-retries", func(o *PanelOptions) { o.CellRetries = 2 }},
		{"faults", "-cell-timeout", func(o *PanelOptions) { o.CellTimeout = time.Nanosecond }},
		{"arch", "-faults", func(o *PanelOptions) { o.Faults = blackout }},
		{"latency", "-obs", func(o *PanelOptions) { o.Obs = true }},
		{"faults", "-trace-events", func(o *PanelOptions) { o.TraceEvents = 8 }},
		{"arch", "-csv", func(o *PanelOptions) { o.CSV = true }},
		{"latency", "-plot", func(o *PanelOptions) { o.Plot = true }},
		{"fig5.1", "-cell-retries needs -checkpoint", func(o *PanelOptions) { o.CellRetries = 5 }},
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
	if err := RunSpec(context.Background(), &bytes.Buffer{}, strings.NewReader("{}"), PanelOptions{CellRetries: 5}); err == nil ||
		!strings.Contains(err.Error(), "-cell-retries needs -checkpoint") {
		t.Errorf("RunSpec with -cell-retries and no -checkpoint: err = %v", err)
	}
}

// TestPanelsRefusesNegativeScale: a negative -slots, -seeds, -sources
// or -flush is an error naming the flag before any cell runs, on a
// panel, a non-sweep experiment and a spec alike.
func TestPanelsRefusesNegativeScale(t *testing.T) {
	for _, c := range []struct {
		flag string
		set  func(*experiments.Options)
	}{
		{"-slots", func(o *experiments.Options) { o.Slots = -5 }},
		{"-seeds", func(o *experiments.Options) { o.Seeds = -1 }},
		{"-sources", func(o *experiments.Options) { o.Sources = -100 }},
		{"-flush", func(o *experiments.Options) { o.FlushEvery = -3 }},
	} {
		for _, experiment := range []string{"fig5.1", "arch", "spec"} {
			o := PanelOptions{Experiment: experiment, Opts: smallOpts(), CSV: experiment != "arch"}
			c.set(&o.Opts)
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
			if err == nil || !strings.Contains(err.Error(), c.flag+" ") {
				t.Errorf("%s with %s: err = %v, want one naming %s", experiment, c.flag, err, c.flag)
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

func TestGenerateRejectsBadMode(t *testing.T) {
	if err := Generate(&bytes.Buffer{}, GenerateOptions{Slots: 1, Ports: 2, Sources: 1, Mode: "bogus"}); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestReplayValidation(t *testing.T) {
	trace := "# smbm-trace v1 slots=1\n0 0 1 1\n"
	cases := []ReplayOptions{
		{Policy: "LWD", Ports: 2, Mode: "bogus"},
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

// TestWorkModeRejectsMismatchedK: in work mode the works are 1..ports,
// so Generate and Replay refuse an explicit -k other than -ports rather
// than silently ignoring it. work-value keeps -k as its value bound.
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
		{Slots: 10, Ports: 8, MaxLabel: 4, Sources: 5, Mode: "work-value", Seed: 1},
	} {
		if err := Generate(&bytes.Buffer{}, o); err != nil {
			t.Errorf("Generate %+v: %v", o, err)
		}
	}
	if err := Replay(&bytes.Buffer{}, strings.NewReader(trace), ReplayOptions{Policy: "LWD", Ports: 8, MaxLabel: 8, Mode: "work"}); err != nil {
		t.Errorf("Replay -k = -ports: %v", err)
	}
}
