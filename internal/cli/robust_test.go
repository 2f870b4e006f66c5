package cli

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

func TestPanelsCanceledSweepRendersPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the sweep dispatches any cell
	var buf bytes.Buffer
	err := Panels(ctx, &buf, PanelOptions{Experiment: "fig5.1", Opts: smallOpts()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestRunSpecCanceledRendersPartialTable(t *testing.T) {
	const specJSON = `{
	  "name": "cancel-spec",
	  "model": "processing",
	  "sweep": "C",
	  "values": [1, 2],
	  "k": 4, "B": 32,
	  "policies": ["LWD", "Greedy"],
	  "slots": 300, "seeds": 1,
	  "traffic": {"sources": 10, "load": 2.0}
	}`
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := RunSpec(ctx, &buf, strings.NewReader(specJSON), PanelOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The partial (here: empty) result is still rendered, marked as such,
	// instead of being discarded — the smbsim SIGINT path relies on this.
	out := buf.String()
	if !strings.Contains(out, "cancel-spec") || !strings.Contains(out, "partial") {
		t.Errorf("canceled sweep did not render a partial report:\n%s", out)
	}
}

// TestPanelsCheckpointResume drives the option smbsim -checkpoint DIR
// sets — a cell journal in DIR — and requires both the journaling run and its resume to print the same
// text report as a plain run, elapsed times aside.
func TestPanelsCheckpointResume(t *testing.T) {
	var plain bytes.Buffer
	if err := Panels(context.Background(), &plain, PanelOptions{Experiment: "fig5.1", Opts: smallOpts()}); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cli.ckpt")
	o := PanelOptions{Experiment: "fig5.1", Opts: smallOpts(), Checkpoint: dir}
	var first bytes.Buffer
	if err := Panels(context.Background(), &first, o); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, "local.jsonl"))
	if err != nil {
		t.Fatalf("checkpoint journal missing: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("checkpoint journal empty")
	}
	// The resumed run replays nothing and reproduces the identical table.
	var second bytes.Buffer
	if err := Panels(context.Background(), &second, o); err != nil {
		t.Fatal(err)
	}
	want := stripTimings(plain.String())
	for name, got := range map[string]string{"checkpointed": first.String(), "resumed": second.String()} {
		if want == "" || stripTimings(got) != want {
			t.Errorf("%s report differs from a plain run's:\n%s\nvs\n%s", name, got, plain.String())
		}
	}
}

// stripTimings removes the elapsed-time annotation from a report header
// so two runs of different wall-clock duration compare equal.
func stripTimings(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if i := strings.LastIndex(line, " ("); strings.HasPrefix(line, "==") && i >= 0 {
			line = line[:i]
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestTraceDumpsInGridOrder pins that per-cell event dumps come out in
// grid order whatever order the cells complete in: at two workers, cell
// x=1's Build blocks until Progress has seen cell x=2 complete, and the
// dumps must still read x=1 then x=2.
func TestTraceDumpsInGridOrder(t *testing.T) {
	cfg := core.Config{Model: core.ModelValue, Ports: 2, Buffer: 2, MaxLabel: 2, Speedup: 1}
	arrivals := traffic.Slots([]pkt.Packet{pkt.NewValue(0, 1), pkt.NewValue(1, 2), pkt.NewValue(0, 2)})
	secondDone := make(chan struct{})
	sweep := &sim.Sweep{
		Name: "order", XLabel: "x", Xs: []int{1, 2}, Seeds: 1, Parallelism: 2,
		Build: func(x int, _ int64) (sim.Instance, error) {
			if x == 1 {
				<-secondDone
			}
			return sim.Instance{Cfg: cfg, Policies: []core.Policy{policy.Greedy{}}, Provider: arrivals}, nil
		},
	}
	var dumps bytes.Buffer
	o := PanelOptions{
		TraceEvents: 4,
		TraceWriter: &dumps,
		Progress: func(p sim.SweepProgress) {
			if p.X == 2 {
				close(secondDone)
			}
		},
	}
	if err := renderSweep(context.Background(), io.Discard, sweep, o); err != nil {
		t.Fatal(err)
	}
	out := dumps.String()
	first, second := strings.Index(out, "label=order:x=1:seed0:Greedy"), strings.Index(out, "label=order:x=2:seed0:Greedy")
	if first < 0 || second < 0 || first > second {
		t.Errorf("dumps not in grid order (x=1 at %d, x=2 at %d):\n%s", first, second, out)
	}
}
