// Command smbsim regenerates the paper's simulation study (Fig. 5): for
// each panel it sweeps the panel's parameter (k, B or speedup C) over
// MMPP traffic and prints the mean empirical competitive ratio of every
// policy against the OPT proxy (a single priority queue with n·C cores).
// The "arch" experiment additionally compares the shared-memory switch
// against the Fig. 1 single-queue architecture, and the "latency"
// experiment reports the delay/throughput trade-off as B varies.
//
// Usage:
//
//	smbsim                          # run all nine panels at default scale
//	smbsim -experiment fig5.1       # one panel
//	smbsim -experiment arch         # architecture comparison
//	smbsim -scale paper             # paper scale: 2·10⁶ slots, 500 sources
//	smbsim -slots 2000000 -seeds 5  # custom scale
//	smbsim -plot                    # append ASCII charts
//	smbsim -csv > panels.csv        # machine-readable output
//
// Robustness flags for long runs:
//
//	smbsim -checkpoint run.ckpt     # journal cells to run.ckpt/local.jsonl; re-run to resume
//	smbsim -checkpoint run.ckpt -cell-retries 5  # retry a failing cell 5 times, then degrade it
//	smbsim -cell-timeout 5m         # fail runaway cells, keep the rest
//
// SIGINT cancels the run gracefully: completed points are printed as a
// partial table and the process exits with code 2, so a checkpointed
// run can be resumed later. A checkpointed run killed outright (kill -9,
// power loss) resumes too: the attempt it died in counts against
// -cell-retries, and the resumed output is byte-identical to an
// uninterrupted run's.
//
// Observability flags:
//
//	smbsim -obs                     # append per-policy decision counters
//	smbsim -trace-events 64         # ring-buffer the last 64 decision events
//	                                # per replay and dump them (implies -obs)
//	smbsim -trace-out events.txt    # trace dump destination (default stderr)
//	smbsim -pprof localhost:6060    # serve net/http/pprof and expvar; sweep
//	                                # progress appears at /debug/vars under
//	                                # "smbsim.progress"
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"sync"

	"smbm/internal/cli"
	"smbm/internal/experiments"
	"smbm/internal/sim"
)

// Exit codes: 0 success, 1 failure, 2 interrupted (partial results
// printed, resumable via -checkpoint).
const (
	exitFailure     = 1
	exitInterrupted = 2
)

// progressVar publishes the latest sweep progress through expvar as a
// JSON object, so a long run can be watched with
// `curl host:port/debug/vars`. Results payloads are dropped before
// publication: only the counters travel.
type progressVar struct {
	mu     sync.Mutex
	seen   bool
	latest sim.SweepProgress
}

// Update records one progress notification (called from the sweep's
// fold goroutine).
func (v *progressVar) Update(p sim.SweepProgress) {
	v.mu.Lock()
	defer v.mu.Unlock()
	p.Results = nil
	p.Err = nil
	v.seen = true
	v.latest = p
}

// String renders the published JSON (expvar.Var contract).
func (v *progressVar) String() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.seen {
		return `{"state":"idle"}`
	}
	p := v.latest
	return fmt.Sprintf(
		`{"state":"running","sweep":%q,"x_label":%q,"x":%d,"seed_index":%d,"done":%d,"failed":%d,"skipped":%d,"total":%d}`,
		p.Sweep, p.XLabel, p.X, p.SeedIndex, p.Done, p.Failed, p.Skipped, p.Total)
}

func main() {
	var (
		experiment  = flag.String("experiment", "", "experiment to run (fig5.1 ... fig5.9, arch, latency); empty runs the nine panels")
		scale       = flag.String("scale", "", `option preset: "laptop" (default) or "paper" (2000000 slots, 500 sources; each cell generates its stream once, a window of slots at a time, in memory independent of the slot count); explicit flags override the preset`)
		slots       = flag.Int("slots", 0, "trace length per replication (default 4000; paper uses 2000000)")
		seeds       = flag.Int("seeds", 0, "replications per point (default 3)")
		sources     = flag.Int("sources", 0, "MMPP on-off sources (default 100; paper uses 500)")
		flushEvery  = flag.Int("flush", 0, "slots between periodic flushouts (default 1000)")
		seed        = flag.Int64("seed", 0, "base RNG seed (default 1)")
		workers     = flag.Int("workers", 0, "parallel simulation workers: a sweep's concurrent cells, or the systems -experiment arch and latency step through each window of their streams (default GOMAXPROCS)")
		asPlot      = flag.Bool("plot", false, "render each panel as an ASCII chart as well")
		asCSV       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		specPath    = flag.String("spec", "", "run a custom JSON experiment spec instead of the paper's panels")
		cellTimeout = flag.Duration("cell-timeout", 0, "per-cell deadline; a timed-out cell fails without killing the sweep (0 = unbounded)")
		checkpoint  = flag.String("checkpoint", "", "journal every sweep cell to `DIR`/local.jsonl and resume from it on re-runs")
		cellRetries = flag.Int("cell-retries", 0, "with -checkpoint: retries of a failed cell before it is reported degraded (default 3; negative = no retries)")
		obsFlag     = flag.Bool("obs", false, "record per-policy decision counters and append them to each report")
		traceEvents = flag.Int("trace-events", 0, "ring-buffer the last N decision events per replay and dump them after each cell (implies -obs)")
		traceOut    = flag.String("trace-out", "", "write -trace-events dumps to this file instead of stderr")
		pprofAddr   = flag.String("pprof", "", `serve net/http/pprof and expvar on this address (e.g. "localhost:6060")`)
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := cli.RefuseIgnoredFlags(*experiment, *specPath != "", set); err != nil {
		fmt.Fprintln(os.Stderr, "smbsim:", err)
		os.Exit(exitFailure)
	}

	// Resolve the scale preset first, then let explicit flags override
	// its fields.
	scaleOpts, scaleErr := experiments.ScaleOptions(*scale)
	if scaleErr != nil {
		fmt.Fprintln(os.Stderr, "smbsim:", scaleErr)
		os.Exit(exitFailure)
	}
	if *slots != 0 {
		scaleOpts.Slots = *slots
	}
	if *seeds != 0 {
		scaleOpts.Seeds = *seeds
	}
	if *sources != 0 {
		scaleOpts.Sources = *sources
	}
	if *flushEvery != 0 {
		scaleOpts.FlushEvery = *flushEvery
	}
	if *seed != 0 {
		scaleOpts.BaseSeed = *seed
	}
	scaleOpts.Parallelism = *workers

	if *traceOut != "" && *traceEvents <= 0 {
		fmt.Fprintln(os.Stderr, "smbsim: -trace-out needs -trace-events")
		os.Exit(exitFailure)
	}
	if *checkpoint != "" {
		if fi, err := os.Stat(*checkpoint); err == nil && !fi.IsDir() {
			fmt.Fprintf(os.Stderr, "smbsim: -checkpoint %s is a file: a pre-ledger checkpoint journal, which this build cannot resume; finish it with the previous build or move it aside\n", *checkpoint)
			os.Exit(exitFailure)
		}
	}

	opts := cli.PanelOptions{
		Experiment:  *experiment,
		Opts:        scaleOpts,
		Plot:        *asPlot,
		CSV:         *asCSV,
		CellTimeout: *cellTimeout,
		Checkpoint:  *checkpoint,
		CellRetries: *cellRetries,
		Obs:         *obsFlag,
		TraceEvents: *traceEvents,
	}
	if *traceEvents > 0 {
		opts.TraceWriter = os.Stderr
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "smbsim:", err)
				os.Exit(exitFailure)
			}
			defer f.Close()
			opts.TraceWriter = f
		}
	}

	// The progress variable is published unconditionally (expvar costs
	// nothing unscraped); -pprof starts the server that exposes it along
	// with the standard pprof profiles.
	progress := new(progressVar)
	expvar.Publish("smbsim.progress", progress)
	opts.Progress = progress.Update
	if *pprofAddr != "" {
		go func() {
			// The default mux already carries /debug/pprof (imported
			// above) and /debug/vars (expvar). A dead debug server must
			// not kill the run.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "smbsim: pprof server:", err)
			}
		}()
	}

	// SIGINT cancels the context; sweeps return their completed points
	// as partial tables instead of discarding hours of work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	if *specPath != "" {
		var f *os.File
		if f, err = os.Open(*specPath); err == nil {
			err = cli.RunSpec(ctx, os.Stdout, f, opts)
			f.Close()
		}
	} else {
		err = cli.Panels(ctx, os.Stdout, opts)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "smbsim: interrupted; partial results printed above")
			if *checkpoint != "" {
				fmt.Fprintf(os.Stderr, "smbsim: re-run with -checkpoint %s to resume\n", *checkpoint)
			}
			stop() // restore default SIGINT behaviour for the exit path
			os.Exit(exitInterrupted)
		}
		fmt.Fprintln(os.Stderr, "smbsim:", err)
		os.Exit(exitFailure)
	}
}
