package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"smbm/internal/experiments"
	"smbm/internal/sim"
)

// sweepWorkload runs one Fig. 5 panel through cmd/smbsim, rep after
// rep, and checks each rep's CSV.
type sweepWorkload struct {
	name       string
	panel      string
	slots      int    // per-cell trace length
	shortSlots int    // per-cell trace length at -short sizing
	policy     string // roster policy driven through the layers the sweep does not cross
}

// The two sweeps use the sim, core, policy and opt layers in opposite
// ways: fig5.1 is FIFO admission on deque storage, fig5.4 is the value
// model on bmset priority queues with push-out-heavy policies. A
// storage change that helps one must show as no change on the other.
var (
	sweepProc  = sweepWorkload{name: "sweep-proc", panel: "fig5.1", slots: 20000, shortSlots: 300, policy: "LWD"}
	sweepValue = sweepWorkload{name: "sweep-value", panel: "fig5.4", slots: 4000, shortSlots: 150, policy: "MRD"}
)

const (
	sweepSeeds    = 2  // replications per point, as -seeds
	sweepWorkers  = 2  // smbsim -workers
	setupLaunches = 11 // launches behind the setup_s median
	minSweepReps  = 3  // timed reps even when -seconds is tiny
)

// args renders smbsim's command line for the panel.
func (w sweepWorkload) args(slots, seeds, workers int, seed int64) []string {
	return []string{
		"-experiment", w.panel, "-slots", strconv.Itoa(slots), "-seeds", strconv.Itoa(seeds),
		"-workers", strconv.Itoa(workers), "-csv", "-seed", strconv.FormatInt(seed, 10),
	}
}

// childRun is one finished subprocess.
type childRun struct {
	stdout   []byte
	wall     time.Duration
	cpu      time.Duration
	maxRSSKB int64
}

// runChild runs a program under test to completion, timing it from
// exec to exit and reading its resource usage.
func runChild(ctx context.Context, path string, args []string) (childRun, error) {
	if err := resetPeakRSS(); err != nil {
		return childRun{}, err
	}
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.Env = childEnv()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	r := childRun{stdout: stdout.Bytes(), wall: time.Since(t0)}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.maxRSSKB = ru.Maxrss
			r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %v: %s", filepath.Base(path), strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	return r, nil
}

// resetPeakRSS lowers this process's peak-RSS mark to its current RSS,
// after handing freed memory back to the OS. Go starts children the
// vfork way, and the kernel carries the parent's peak into the child's
// rusage Maxrss at exec; without the reset a child's peak_rss_mb could
// be the benchmark's own.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("resetting the peak RSS mark: %w", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("5")); err != nil {
		return fmt.Errorf("resetting the peak RSS mark: %w", err)
	}
	return nil
}

// lastLine returns the last non-empty line of s.
func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// sha256hex is the hex SHA-256 of b.
func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// run measures the sweep: set-up launches, one warm-up rep, then timed
// reps until the measuring time is spent; with trace, the in-process
// traced run follows.
func (w sweepWorkload) run(ctx context.Context, c *config) (*outcome, error) {
	slots := w.slots
	if c.short {
		slots = w.shortSlots
	}
	o := newOutcome(w.name, c.seed)
	opts := experiments.Options{Slots: slots, Seeds: sweepSeeds, BaseSeed: c.seed, Parallelism: sweepWorkers}
	sweep, err := experiments.Panel(w.panel, opts)
	if err != nil {
		return nil, err
	}
	cells := len(sweep.Xs) * sweepSeeds
	smbsim := filepath.Join(c.bin, "smbsim")

	// Set-up: exec until exit of the same panel at one slot, one seed and
	// one worker — process start, flag parsing and panel construction.
	var setup []float64
	for i := 0; i < setupLaunches; i++ {
		r, err := runChild(ctx, smbsim, w.args(1, 1, 1, c.seed))
		if err != nil {
			return nil, fmt.Errorf("set-up launch: %w", err)
		}
		setup = append(setup, r.wall.Seconds())
	}
	o.setMedian("setup_s", "s", setup)

	golden := c.golden[goldenKey(w.name, fmt.Sprintf("slots=%d", slots), fmt.Sprintf("seed=%d", c.seed))]
	var ref []byte
	args := w.args(slots, sweepSeeds, sweepWorkers, c.seed)
	// rep runs smbsim once and checks its CSV. A rep that exited cleanly
	// is timed even when its CSV is wrong: the failure is counted, and
	// the timing still describes the program.
	rep := func() (childRun, bool) {
		r, err := runChild(ctx, smbsim, args)
		ran := err == nil
		if ran {
			err = w.verify(r.stdout, len(sweep.Xs), &ref, golden)
		}
		o.check(cells, err)
		return r, ran
	}
	rep() // warm-up: page cache and CPU frequency, not timed
	var rates, walls, rss []float64
	var cpu time.Duration
	start := time.Now()
	for n := 0; n < minSweepReps || time.Since(start).Seconds() < c.seconds; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, ok := rep()
		if !ok {
			continue
		}
		rates = append(rates, float64(cells)/r.wall.Seconds())
		walls = append(walls, float64(r.wall)/1e6)
		rss = append(rss, float64(r.maxRSSKB)/1024)
		cpu += r.cpu
	}
	if len(walls) == 0 {
		return nil, errors.New("no rep succeeded: " + strings.Join(o.failures, "; "))
	}
	o.setMedian("throughput", "1/s", rates)
	o.setMedian("latency_p50_ms", "ms", walls)
	o.setQuantile("latency_p99_ms", "ms", walls, 0.99)
	o.setMedian("peak_rss_mb", "MB", rss)
	o.set("proc.cpu_ns_per_op", "ns", float64(cpu)/float64(cells*len(walls)))
	if !c.trace {
		return o, nil
	}
	return o, w.traceLayers(ctx, c, o, opts, cells, ref)
}

// verify checks one rep's CSV: the panel's shape, the committed digest
// when one is pinned for this size and seed, and byte identity with
// the first rep.
func (w sweepWorkload) verify(out []byte, xs int, ref *[]byte, golden string) error {
	head := "# " + w.panel + "\n"
	if !bytes.HasPrefix(out, []byte(head)) || bytes.Count(out, []byte("\n")) != xs+3 {
		return fmt.Errorf("%s: CSV is not one %d-row panel", w.panel, xs)
	}
	if golden != "" {
		if got := sha256hex(out); got != golden {
			return fmt.Errorf("%s: CSV digest %.12s differs from the committed %.12s", w.panel, got, golden)
		}
	}
	if *ref == nil {
		*ref = out
		return nil
	}
	if !bytes.Equal(out, *ref) {
		return fmt.Errorf("%s: CSV differs from the first rep's", w.panel)
	}
	return nil
}

// panelCSV runs the panel in-process exactly as smbsim -csv does and
// renders the same bytes. A non-nil tracer instruments the run.
func panelCSV(ctx context.Context, panel string, opts experiments.Options, tr *sweepTracer) ([]byte, int64, error) {
	sweep, err := experiments.Panel(panel, opts)
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		tr.instrument(sweep)
	}
	t0 := nanotime()
	res, err := sweep.RunContext(ctx)
	t1 := nanotime()
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		tr.finish(t0, t1)
	}
	return []byte(fmt.Sprintf("# %s\n%s\n", res.Name, res.CSV())), t1 - t0, nil
}

// traceLayers runs the panel in-process, untraced and traced in turn
// (twice each; the first of each pair warms up), checks both CSVs
// against smbsim's, and publishes the per-layer metrics. The layers a
// sweep does not cross — decode, shard, obs — are driven with the
// panel's middle cell.
func (w sweepWorkload) traceLayers(ctx context.Context, c *config, o *outcome, opts experiments.Options, cells int, ref []byte) error {
	var plain, traced int64
	var tr *sweepTracer
	var mallocs, gcs uint64
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		csv, wall, err := panelCSV(ctx, w.panel, opts, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		o.check(cells, csvMatch("untraced in-process", csv, ref))
		plain, mallocs, gcs = wall, after.Mallocs-before.Mallocs, uint64(after.NumGC-before.NumGC)

		log := newSpanLog("warm-up")
		if i == 1 {
			log = o.spans
		}
		tr = newSweepTracer(log)
		csv, wall, err = panelCSV(ctx, w.panel, opts, tr)
		if err != nil {
			return err
		}
		o.check(cells, csvMatch("traced in-process", csv, ref))
		traced = wall
	}
	o.set("trace_overhead_frac", "ratio", float64(traced)/float64(plain)-1)
	o.set("go.mallocs_per_op", "count", float64(mallocs)/float64(cells))
	o.set("go.gc_per_op", "count", float64(gcs)/float64(cells))
	tr.publish(o, sweepWorkers)

	sweep, err := experiments.Panel(w.panel, opts)
	if err != nil {
		return err
	}
	inst, err := sweep.Build(sweep.Xs[len(sweep.Xs)/2], c.seed)
	if err != nil {
		return err
	}
	payload, err := encodeProvider(inst.Provider)
	if err != nil {
		return err
	}
	factory, err := policyFactory(inst.Cfg.Model, w.policy)
	if err != nil {
		return err
	}
	d, err := driveLayers(ctx, inst.Cfg, factory, [][]byte{payload}, o.spans)
	if err != nil {
		return err
	}
	d.publish(o)
	micro(o, tr.core.meanDepth(), inst.Cfg.MaxLabel)
	return nil
}

// csvMatch checks an in-process CSV against smbsim's bytes.
func csvMatch(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s CSV differs from smbsim's", what)
	}
	return nil
}

// sweepTracer instruments one in-process sweep: Sweep.Build is wrapped
// so every instance times its Provider (generation) and every system
// (switch admit and transmit, OPT proxy step). Spans nest sweep → cell
// → replay.
type sweepTracer struct {
	log        *spanLog
	root       int64
	start, end int64

	mu    sync.Mutex
	cells []*cellTrace
	core  coreTotals
}

// cellTrace is one (x, seed) cell of the traced sweep.
type cellTrace struct {
	id         int64
	x          int
	seed       int64
	start, end int64
	want, got  int // replays expected (OPT proxy + roster) and finished
	gen        timing
}

// newSweepTracer records spans into log.
func newSweepTracer(log *spanLog) *sweepTracer {
	return &sweepTracer{log: log, root: log.id()}
}

// instrument wraps the sweep's Build.
func (tr *sweepTracer) instrument(sweep *sim.Sweep) {
	build := sweep.Build
	sweep.Build = func(x int, seed int64) (sim.Instance, error) {
		start := nanotime()
		inst, err := build(x, seed)
		if err != nil {
			return inst, err
		}
		cell := &cellTrace{id: tr.log.id(), x: x, seed: seed, start: start, want: len(inst.Policies) + 1}
		tr.mu.Lock()
		tr.cells = append(tr.cells, cell)
		tr.mu.Unlock()
		inst.Provider = &timedProvider{src: inst.Provider, done: func(t *timing) {
			tr.mu.Lock()
			defer tr.mu.Unlock()
			cell.gen.merge(t)
		}}
		inst.Wrap = func(sys sim.System) (sim.System, error) {
			return newTimedSystem(sys, func(r *replay) { tr.replayDone(cell, r) }), nil
		}
		return inst, nil
	}
}

// replayDone folds one finished replay in and closes its cell after the
// cell's last replay.
func (tr *sweepTracer) replayDone(cell *cellTrace, r *replay) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.core.add(r)
	tr.log.record(tr.log.id(), cell.id, "replay", r.start, r.end, map[string]any{
		"system": r.name, "admit_ns": r.admit.busy, "transmit_ns": r.transmit.busy, "opt_ns": r.opt.busy,
	})
	cell.got++
	if cell.got == cell.want {
		cell.end = r.end
		tr.log.record(cell.id, tr.root, "cell", cell.start, cell.end, map[string]any{"x": cell.x, "seed": cell.seed})
	}
}

// finish closes the sweep span.
func (tr *sweepTracer) finish(start, end int64) {
	tr.start, tr.end = start, end
	tr.log.record(tr.root, 0, "sweep", start, end, map[string]any{"cells": len(tr.cells)})
}

// publish records the sim, traffic, core, policy and opt metrics of the
// traced sweep. Self time is cell time outside the timed calls: Build,
// memo playback, the replay loop and the fold.
func (tr *sweepTracer) publish(o *outcome, workers int) {
	var cellMs []float64
	var cellSum, lastStart int64
	var gen timing
	for _, c := range tr.cells {
		cellMs = append(cellMs, float64(c.end-c.start)/1e6)
		cellSum += c.end - c.start
		gen.merge(&c.gen)
		lastStart = max(lastStart, c.start)
	}
	// Once the last cell has started the queue is empty; worker time not
	// spent in a cell from then on is tail idle.
	var busyAfter int64
	for _, c := range tr.cells {
		if from := max(c.start, lastStart); c.end > from {
			busyAfter += c.end - from
		}
	}
	frac := func(ns int64) float64 { return float64(ns) / float64(cellSum) }
	ct := &tr.core
	o.setMedian("sim.cell_ms_p50", "ms", cellMs)
	o.setQuantile("sim.cell_ms_p75", "ms", cellMs, 0.75)
	o.set("sim.self_frac", "ratio", frac(cellSum-ct.admit.busy-ct.transmit.busy-ct.opt.busy-gen.busy))
	o.set("sim.tail_idle_frac", "ratio", float64(int64(workers)*(tr.end-lastStart)-busyAfter)/float64(int64(workers)*(tr.end-tr.start)))
	o.set("traffic.gen_ns_per_pkt", "ns", gen.perItem())
	o.set("traffic.gen_frac", "ratio", frac(gen.busy))
	o.set("opt.frac", "ratio", frac(ct.opt.busy))
	o.set("core.admit_frac", "ratio", frac(ct.admit.busy))
	o.set("core.transmit_frac", "ratio", frac(ct.transmit.busy))
	ct.publish(o)
	o.spans.addHist("traffic.gen_ns_per_slot", &gen.h)
}
