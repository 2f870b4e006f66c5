// Package cli implements the bodies of the repository's commands with
// injectable I/O, so the CLIs stay thin and the command logic is tested
// like any other package.
package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"smbm/internal/adversary"
	"smbm/internal/experiments"
	"smbm/internal/faults"
	"smbm/internal/obs"
	"smbm/internal/sim"
	"smbm/internal/spec"
	"smbm/internal/tablefmt"
)

// PanelOptions drives Panels (cmd/smbsim).
type PanelOptions struct {
	// Experiment selects one panel, "arch", "latency" or "faults";
	// empty runs the nine Fig. 5 panels.
	Experiment string
	// Opts scales the runs.
	Opts experiments.Options
	// Plot appends an ASCII chart per panel; CSV replaces tables with
	// CSV blocks.
	Plot, CSV bool
	// Faults, when non-empty, wraps every sweep cell's systems (each
	// policy and the OPT proxy) with this fault plan; its Horizon
	// defaults to each cell's trace length.
	Faults faults.Spec
	// CellTimeout bounds each sweep cell (0 = unbounded).
	CellTimeout time.Duration
	// Checkpoint journals every sweep's cells to this directory, and a
	// re-run resumes from it (sim.Sweep.Checkpoint).
	Checkpoint string
	// CellRetries is a checkpointed run's per-cell retry budget before a
	// cell is reported degraded (0 = 3, negative = none).
	CellRetries int
	// Obs attaches decision-counter recorders to every policy replay
	// and appends the aggregated counter table to each report.
	Obs bool
	// TraceEvents, when positive, additionally rings the last that many
	// decision events per replay (implies Obs) and dumps each completed
	// cell's surviving events to TraceWriter in the obs text format.
	TraceEvents int
	// TraceWriter receives the event dumps (nil discards them).
	TraceWriter io.Writer
	// Progress, when non-nil, receives every sweep's per-cell progress
	// notifications — cmd/smbsim publishes them through expvar.
	Progress func(sim.SweepProgress)
}

// Panels runs the requested evaluation experiments, writing reports to
// w. Canceling ctx stops the run gracefully: the in-flight sweep
// returns its completed points, which are rendered as a partial table
// before the context's error is returned. The "arch", "latency" and
// "faults" experiments are not sweeps: an option only a sweep honours
// is an error there, naming its smbsim flag.
func Panels(ctx context.Context, w io.Writer, o PanelOptions) error {
	if err := o.check(); err != nil {
		return err
	}
	switch o.Experiment {
	case "arch", "latency", "faults":
		if flag := o.sweepOnly(); flag != "" {
			return fmt.Errorf("cli: %s applies only to sweeps, not to -experiment %s", flag, o.Experiment)
		}
	}
	ids := experiments.PanelIDs()
	if o.Experiment != "" {
		ids = []string{o.Experiment}
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		switch id {
		case "arch":
			err = archReport(w, o.Opts)
		case "latency":
			err = latencyReport(w, o.Opts)
		case "faults":
			err = faultsReport(w, o.Opts)
		default:
			err = panelReport(ctx, w, id, o)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// check refuses option combinations no run honours, and a negative
// scale (which no run could honour either: -flush, for one, would
// silently turn periodic flushouts off), naming the smbsim flag.
func (o PanelOptions) check() error {
	for _, f := range []struct {
		flag string
		v    int
	}{
		{"-slots", o.Opts.Slots}, {"-seeds", o.Opts.Seeds}, {"-sources", o.Opts.Sources}, {"-flush", o.Opts.FlushEvery},
	} {
		if f.v < 0 {
			return fmt.Errorf("cli: %s %d is negative", f.flag, f.v)
		}
	}
	if o.CellRetries != 0 && o.Checkpoint == "" {
		return errors.New("cli: -cell-retries needs -checkpoint")
	}
	return nil
}

// sweepOnly returns the smbsim flag of the first set option that only a
// sweep honours, or "" when none is set.
func (o PanelOptions) sweepOnly() string {
	switch {
	case o.Checkpoint != "":
		return "-checkpoint"
	case o.CellRetries != 0:
		return "-cell-retries"
	case o.CellTimeout != 0:
		return "-cell-timeout"
	case !o.Faults.Empty():
		return "-faults"
	case o.Obs:
		return "-obs"
	case o.TraceEvents != 0:
		return "-trace-events"
	case o.CSV:
		return "-csv"
	case o.Plot:
		return "-plot"
	}
	return ""
}

// faultsReport runs the fault-degradation experiment.
func faultsReport(w io.Writer, opts experiments.Options) error {
	start := time.Now()
	rows, err := experiments.FaultDegradation(opts)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "== faults: graceful degradation under the canonical fault mix (%s) ==\n",
		time.Since(start).Round(time.Millisecond)); err != nil {
		return err
	}
	if _, err := io.WriteString(w, experiments.FaultTable(rows)); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w)
	return err
}

// latencyReport runs the buffer-size/latency trade-off experiment.
func latencyReport(w io.Writer, opts experiments.Options) error {
	start := time.Now()
	rows, err := experiments.Latency(opts)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "== latency: delay/throughput trade-off vs B (%s) ==\n",
		time.Since(start).Round(time.Millisecond)); err != nil {
		return err
	}
	if _, err := io.WriteString(w, experiments.LatencyTable(rows)); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w)
	return err
}

// RunSpec loads a JSON experiment spec from r, runs it, and renders the
// report like a panel.
func RunSpec(ctx context.Context, w io.Writer, r io.Reader, o PanelOptions) error {
	if err := o.check(); err != nil {
		return err
	}
	e, err := spec.Load(r)
	if err != nil {
		return err
	}
	sweep, err := e.ToSweep()
	if err != nil {
		return err
	}
	if o.Opts.Parallelism > 0 {
		sweep.Parallelism = o.Opts.Parallelism
	}
	return renderSweep(ctx, w, sweep, o)
}

func panelReport(ctx context.Context, w io.Writer, id string, o PanelOptions) error {
	sweep, err := experiments.Panel(id, o.Opts)
	if err != nil {
		return err
	}
	return renderSweep(ctx, w, sweep, o)
}

// harden applies the robustness and observability options — fault
// injection, per-cell deadline, checkpoint journal, decision counters,
// event tracing, progress publication — to a sweep before it runs. It
// returns the function that writes the held per-cell event dumps to
// TraceWriter in grid order (Xs order, then seed), to be called once
// the sweep has returned: cells complete in any order at more than one
// worker, and a dump file must not depend on scheduling.
func harden(sweep *sim.Sweep, o PanelOptions) (writeTraces func()) {
	sweep.CellTimeout = o.CellTimeout
	sweep.Checkpoint = o.Checkpoint
	sweep.CellRetries = o.CellRetries
	if o.Obs || o.TraceEvents > 0 {
		sweep.Obs = &obs.Options{TraceEvents: o.TraceEvents}
	}
	writeTraces = func() {}
	if o.Progress != nil || (o.TraceEvents > 0 && o.TraceWriter != nil) {
		name, xlabel := sweep.Name, sweep.XLabel
		type cellKey struct{ x, seed int }
		dumps := make(map[cellKey][]byte)
		sweep.Progress = func(p sim.SweepProgress) {
			if o.TraceEvents > 0 && o.TraceWriter != nil {
				var buf bytes.Buffer
				for _, r := range p.Results {
					if r.Obs == nil || len(r.Obs.Events) == 0 {
						continue
					}
					label := fmt.Sprintf("%s:%s=%d:seed%d:%s", name, xlabel, p.X, p.SeedIndex, r.Policy)
					_ = obs.DumpEvents(&buf, label, r.Obs.Events, r.Obs.DroppedEvents) // a bytes.Buffer write cannot fail
				}
				if buf.Len() > 0 {
					dumps[cellKey{p.X, p.SeedIndex}] = buf.Bytes()
				}
			}
			if o.Progress != nil {
				o.Progress(p)
			}
		}
		writeTraces = func() {
			for _, x := range sweep.Xs {
				for si := 0; si < sweep.Seeds; si++ {
					if d, ok := dumps[cellKey{x, si}]; ok {
						// Best effort: a failing trace sink must not
						// fail the sweep that is being debugged
						// through it.
						_, _ = o.TraceWriter.Write(d)
					}
				}
			}
		}
	}
	if o.Faults.Empty() {
		return writeTraces
	}
	// The fault plan shapes every cell, so it belongs in the checkpoint
	// fingerprint: resuming a faulted checkpoint without -faults (or vice
	// versa) must fail loudly. An unset horizon renders as 0; each cell
	// then covers its own trace, whose length the digest already holds.
	sweep.ConfigDigest += ";faults=" + o.Faults.String()
	build := sweep.Build
	sweep.Build = func(x int, seed int64) (sim.Instance, error) {
		inst, err := build(x, seed)
		if err != nil {
			return inst, err
		}
		fs := o.Faults
		if fs.Horizon == 0 {
			fs.Horizon = int64(inst.Provider.Slots())
		}
		inst.Wrap = faults.Wrapper(fs, inst.Cfg.Ports, seed)
		return inst, nil
	}
	return writeTraces
}

// renderSweep runs the sweep and renders its report. On interruption
// or per-cell failures, any completed points are still rendered —
// marked partial — before the error is propagated.
func renderSweep(ctx context.Context, w io.Writer, sweep *sim.Sweep, o PanelOptions) error {
	writeTraces := harden(sweep, o)
	start := time.Now()
	result, err := sweep.RunContext(ctx)
	writeTraces()
	if result == nil {
		return err
	}
	if rerr := writeSweepReport(w, result, o, time.Since(start)); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// writeSweepReport renders one (possibly partial) sweep result:
// harness warnings first, then the ratio table (or CSV), then — when
// recorded — the aggregated decision counters.
func writeSweepReport(w io.Writer, result *sim.SweepResult, o PanelOptions, elapsed time.Duration) error {
	marker := ""
	if result.Partial {
		marker = ", partial"
	}
	warnPrefix := "warning: "
	if o.CSV {
		warnPrefix = "# warning: "
	}
	for _, warn := range result.Warnings {
		if _, err := fmt.Fprintf(w, "%s%s\n", warnPrefix, warn); err != nil {
			return err
		}
	}
	if o.CSV {
		_, err := fmt.Fprintf(w, "# %s%s\n%s\n", result.Name, marker, result.CSV())
		return err
	}
	if _, err := fmt.Fprintf(w, "== %s: competitive ratio vs %s (%s%s) ==\n",
		result.Name, result.XLabel, elapsed.Round(time.Millisecond), marker); err != nil {
		return err
	}
	if _, err := io.WriteString(w, result.Table()); err != nil {
		return err
	}
	if t := result.ObsTable(); t != "" {
		if _, err := fmt.Fprintf(w, "-- decision counters (summed over cells) --\n%s", t); err != nil {
			return err
		}
	}
	if o.Plot && len(result.Points) > 0 {
		if _, err := fmt.Fprintf(w, "\n%s", result.Plot()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func archReport(w io.Writer, opts experiments.Options) error {
	start := time.Now()
	rows, err := experiments.Architectures(opts)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "== arch: single-queue vs shared-memory architectures (%s) ==\n",
		time.Since(start).Round(time.Millisecond)); err != nil {
		return err
	}
	if _, err := io.WriteString(w, experiments.ArchTable(rows)); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w)
	return err
}

// LowerBoundOptions drives LowerBounds (cmd/lowerbound).
type LowerBoundOptions struct {
	// Theorem selects one construction ("1".."11"); empty runs all.
	Theorem string
	// Params override the construction's defaults (require Theorem).
	Params adversary.Params
}

// LowerBounds runs the requested theorem constructions and writes the
// comparison table to w.
func LowerBounds(w io.Writer, o LowerBoundOptions) error {
	var constructions []adversary.Construction
	if o.Theorem == "" {
		if o.Params != (adversary.Params{}) {
			return fmt.Errorf("parameter overrides require -theorem")
		}
		all, err := adversary.All()
		if err != nil {
			return err
		}
		constructions = all
	} else {
		c, err := adversary.ByID("thm"+o.Theorem, o.Params)
		if err != nil {
			return err
		}
		constructions = []adversary.Construction{c}
	}

	headers := []string{"theorem", "policy", "alg", "opt(script)", "measured", "predicted", "asymptotic"}
	rows := make([][]string, 0, len(constructions))
	for _, c := range constructions {
		out, err := c.Run()
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			out.Theorem,
			out.PolicyName,
			strconv.FormatInt(out.AlgThroughput, 10),
			strconv.FormatInt(out.OptThroughput, 10),
			fmt.Sprintf("%.3f", out.Ratio),
			fmt.Sprintf("%.3f", out.Predicted),
			fmt.Sprintf("%s = %.3f", c.Asymptotic, out.AsymptoticValue),
		})
	}
	_, err := io.WriteString(w, tablefmt.Render(headers, rows))
	return err
}
