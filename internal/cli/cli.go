// Package cli implements the bodies of the repository's commands with
// injectable I/O, so the CLIs stay thin and the command logic is tested
// like any other package.
package cli

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"smbm/internal/adversary"
	"smbm/internal/experiments"
	"smbm/internal/obs"
	"smbm/internal/sim"
	"smbm/internal/spec"
)

// PanelOptions drives Panels (cmd/smbsim).
type PanelOptions struct {
	// Experiment selects one panel, "arch" or "latency"; empty runs the
	// nine Fig. 5 panels.
	Experiment string
	// Opts scales the runs.
	Opts experiments.Options
	// Plot appends an ASCII chart per panel; CSV replaces tables with
	// CSV blocks.
	Plot, CSV bool
	// Checkpoint journals every sweep's cells to this directory, and a
	// re-run resumes from it (sim.Sweep.Checkpoint).
	Checkpoint string
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
// before the context's error is returned. The "arch" and "latency"
// experiments are not sweeps: an option only a sweep honours is an
// error there, naming its smbsim flag.
func Panels(ctx context.Context, w io.Writer, o PanelOptions) error {
	if err := o.check(); err != nil {
		return err
	}
	if _, ok := tables[o.Experiment]; ok {
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
		if _, ok := tables[id]; ok {
			err = tableReport(w, id, o.Opts)
		} else {
			err = panelReport(ctx, w, id, o)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// check refuses a negative scale, worker count or event ring, which no
// run could honour (-flush, for one, would silently turn periodic
// flushouts off), naming the smbsim flag.
func (o PanelOptions) check() error {
	return checkNonNegative(
		flagValue{"-slots", o.Opts.Slots}, flagValue{"-seeds", o.Opts.Seeds}, flagValue{"-sources", o.Opts.Sources}, flagValue{"-flush", o.Opts.FlushEvery},
		flagValue{"-workers", o.Opts.Parallelism}, flagValue{"-trace-events", o.TraceEvents},
	)
}

// flagValue pairs a command-line flag with the value it was given.
type flagValue struct {
	flag string
	v    int
}

// checkNonNegative refuses the first negative value, naming its flag.
func checkNonNegative(flags ...flagValue) error {
	for _, f := range flags {
		if f.v < 0 {
			return fmt.Errorf("cli: %s %d is negative", f.flag, f.v)
		}
	}
	return nil
}

// sweepOnly returns the smbsim flag of the first set option that only a
// sweep honours, or "" when none is set.
func (o PanelOptions) sweepOnly() string {
	switch {
	case o.Checkpoint != "":
		return "-checkpoint"
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

// RefuseIgnoredFlags refuses an explicitly set smbsim flag that the
// run would silently ignore, naming it: -seeds on arch and latency,
// which run the base seed (-seed) only, and every scale flag on a
// -spec run, whose spec fixes its own scale. set holds the flags given
// on the command line, named without their dash as flag.Visit names
// them: a preset fills the options either way, so their values cannot
// tell.
func RefuseIgnoredFlags(experiment string, spec bool, set map[string]bool) error {
	var ignored []string
	switch {
	case spec:
		ignored = []string{"experiment", "scale", "slots", "seeds", "sources", "flush", "seed"}
	case experiment == "arch" || experiment == "latency":
		ignored = []string{"seeds"}
	}
	for _, name := range ignored {
		if !set[name] {
			continue
		}
		if spec {
			return fmt.Errorf("cli: -%s does not apply to -spec, whose spec fixes its own scale", name)
		}
		return fmt.Errorf("cli: -%s does not apply to -experiment %s, which runs the base seed (-seed) only", name, experiment)
	}
	return nil
}

// tables holds the experiments that are not sweeps, by id: each runs
// at the panel options' scale and renders one titled table.
var tables = map[string]struct {
	title string
	run   func(experiments.Options) (string, error)
}{
	"arch":    {"single-queue vs shared-memory architectures", table(experiments.Architectures, experiments.ArchTable)},
	"latency": {"delay/throughput trade-off vs B", table(experiments.Latency, experiments.LatencyTable)},
}

// table composes an experiment with its table renderer.
func table[R any](run func(experiments.Options) ([]R, error), render func([]R) string) func(experiments.Options) (string, error) {
	return func(o experiments.Options) (string, error) {
		rows, err := run(o)
		if err != nil {
			return "", err
		}
		return render(rows), nil
	}
}

// tableReport runs the non-sweep experiment id and writes its titled
// table, with the run time in the title line.
func tableReport(w io.Writer, id string, opts experiments.Options) error {
	t := tables[id]
	start := time.Now()
	out, err := t.run(opts)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "== %s: %s (%s) ==\n%s\n", id, t.title, time.Since(start).Round(time.Millisecond), out)
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

// harden applies the robustness and observability options — checkpoint
// journal, decision counters, event tracing, progress publication — to
// a sweep before it runs. It returns the
// function that writes the held per-cell event dumps to TraceWriter in
// grid order (Xs order, then seed), to be called once the sweep has
// returned: cells complete in any order at more than one worker, and a
// dump file must not depend on scheduling.
func harden(sweep *sim.Sweep, o PanelOptions) (writeTraces func()) {
	sweep.Checkpoint = o.Checkpoint
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

// writeSweepReport renders one (possibly partial) sweep result: the
// ratio table (or CSV), then — when recorded — the aggregated decision
// counters.
func writeSweepReport(w io.Writer, result *sim.SweepResult, o PanelOptions, elapsed time.Duration) error {
	marker := ""
	if result.Partial {
		marker = ", partial"
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

	table, err := adversary.Table(constructions)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, table)
	return err
}
