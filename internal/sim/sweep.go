package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"

	"smbm/internal/metrics"
	"smbm/internal/obs"
	"smbm/internal/tablefmt"
)

// Sweep describes a one-dimensional parameter sweep replicated over
// seeds: the x-axis of one evaluation panel.
type Sweep struct {
	// Name identifies the experiment ("fig5.1").
	Name string
	// XLabel names the swept parameter ("k", "B", "C").
	XLabel string
	// Xs are the swept values.
	Xs []int
	// Seeds is the number of independent replications per point.
	Seeds int
	// BaseSeed derives per-replication seeds deterministically.
	BaseSeed int64
	// Build constructs the instance for one (x, seed) cell. It must be
	// safe for concurrent use.
	Build func(x int, seed int64) (Instance, error)
	// Parallelism bounds concurrent cells (default: GOMAXPROCS).
	Parallelism int
	// ConfigDigest canonically renders everything Build bakes into a
	// cell that the sweep struct cannot see — B, C, speedup, policy
	// roster, trace shape. It rides in the checkpoint fingerprint so a
	// resume after a flag change is refused instead of silently merging
	// stale cells. Leave empty to fingerprint the sweep identity only.
	ConfigDigest string
	// Checkpoint, when non-empty, journals every completed cell to
	// Checkpoint/local.jsonl, and a re-run resumes from the journal:
	// it skips the completed cells and runs every other cell once, as
	// a plain run does. The journal is keyed by sweep Name, so several
	// sweeps share one directory; one process at a time may hold it.
	Checkpoint string
	// Progress, when non-nil, is called after every cell outcome
	// (completed or failed) with a running progress snapshot — the hook
	// smbsim's expvar publication and per-cell trace dumping hang off.
	// Deliveries are serialized: the callback runs on the fold
	// goroutine, so it may touch state of its own without
	// synchronization. It must be fast — a slow callback stalls cell
	// completion — and must not retain Results beyond the call.
	Progress func(SweepProgress)
	// Obs, when non-nil, is copied into every built instance that does
	// not configure observability itself, attaching decision-counter
	// recorders (and, when TraceEvents > 0, event tracers) to every
	// policy replay of every cell.
	Obs *obs.Options
}

// SweepProgress is the point-in-time view of a running sweep delivered
// to Sweep.Progress after each cell outcome.
type SweepProgress struct {
	// Sweep and XLabel echo the sweep identity.
	Sweep, XLabel string
	// X and SeedIndex identify the cell this notification is about.
	X, SeedIndex int
	// Done counts cells completed by this run so far; Failed counts
	// confined cell failures; Skipped counts cells the checkpoint
	// journal already held completed when the run started; Total is
	// the full grid size.
	Done, Failed, Skipped, Total int
	// Err is the cell's failure (a *CellError), nil when it completed.
	Err error
	// Results are the completed cell's per-policy results (nil on
	// failure). Shared with the sweep's own grid: read, don't mutate.
	Results []Result
}

// CellError is a failure confined to one (x, seed) sweep cell: a Build
// or Run error, or a recovered panic.
// The sweep keeps running the remaining cells and reports the failure —
// carrying the full cell identity so the offending replication can be
// reproduced in isolation.
type CellError struct {
	// Sweep and XLabel echo the sweep identity.
	Sweep, XLabel string
	// X is the swept value of the failed cell.
	X int
	// SeedIndex is the replication index, Seed the derived RNG seed.
	SeedIndex int
	// Seed is the exact seed passed to Build, for standalone replay.
	Seed int64
	// Stack holds the panicking goroutine's stack when the cell's
	// Build or one of its replays panicked (nil for ordinary errors).
	Stack []byte
	// Err is the underlying failure.
	Err error
}

// Error implements error, naming the failed cell.
func (e *CellError) Error() string {
	return fmt.Sprintf("sim: sweep %q cell %s=%d seed[%d]=%d: %v",
		e.Sweep, e.XLabel, e.X, e.SeedIndex, e.Seed, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is / errors.As.
func (e *CellError) Unwrap() error { return e.Err }

// PointResult aggregates one swept value across seeds.
type PointResult struct {
	// X is the swept parameter value.
	X int
	// Ratio maps policy name to its competitive-ratio summary across
	// seeds.
	Ratio map[string]metrics.Summary
	// Throughput maps policy name to its raw objective summary.
	Throughput map[string]metrics.Summary
	// OptThroughput summarizes the OPT proxy's objective.
	OptThroughput metrics.Summary
}

// SweepResult is a completed — or gracefully interrupted — sweep.
type SweepResult struct {
	// Name and XLabel echo the sweep.
	Name, XLabel string
	// Policies is the policy order for rendering (taken from the first
	// completed cell).
	Policies []string
	// Points holds one aggregate per swept value, in Xs order. On a
	// partial run, swept values with no completed cell are omitted and
	// per-point Summary.N reports how many replications made it.
	Points []PointResult
	// Partial reports that not every (x, seed) cell completed — the
	// run was canceled or some cells failed. The Points present are
	// still valid aggregates of the completed cells.
	Partial bool
	// Obs aggregates the per-policy decision counters across every
	// completed cell, keyed by policy name; nil unless the instances
	// attached recorders (Sweep.Obs / Instance.Obs).
	Obs map[string]obs.KindCounts `json:"obs,omitempty"`
}

// Run executes all (x, seed) cells on a bounded worker pool and folds
// replications in deterministic order. It is RunContext without
// cancellation.
func (s *Sweep) Run() (*SweepResult, error) {
	return s.RunContext(context.Background())
}

// cellSeed derives the deterministic RNG seed for cell (xi, si).
func (s *Sweep) cellSeed(xi, si int) int64 {
	return s.BaseSeed + int64(xi)*1_000_003 + int64(si)*7_919
}

// validate rejects malformed sweeps up front with clear errors.
func (s *Sweep) validate() error {
	if len(s.Xs) == 0 {
		return fmt.Errorf("sim: sweep %q has no x values", s.Name)
	}
	seen := make(map[int]bool, len(s.Xs))
	for _, x := range s.Xs {
		if seen[x] {
			return fmt.Errorf("sim: sweep %q has duplicate x value %d", s.Name, x)
		}
		seen[x] = true
	}
	if s.Seeds < 1 {
		return fmt.Errorf("sim: sweep %q needs at least one seed", s.Name)
	}
	if s.Build == nil {
		return fmt.Errorf("sim: sweep %q has no Build function", s.Name)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("sim: sweep %q has negative Parallelism %d", s.Name, s.Parallelism)
	}
	return nil
}

// runCell executes one (x, seed) cell, converting failures — including
// panics in Build or in any replay — into a *CellError that names the cell, so one bad replication cannot kill
// a multi-hour run. intra is the cell's share of the sweep's worker
// budget for fanning its replays out in parallel; a Build that sets
// Parallelism itself wins over the split.
func (s *Sweep) runCell(ctx context.Context, xi, si, intra int) (res []Result, err error) {
	x, seed := s.Xs[xi], s.cellSeed(xi, si)
	fail := func(e error) *CellError {
		return &CellError{Sweep: s.Name, XLabel: s.XLabel, X: x, SeedIndex: si, Seed: seed, Err: e}
	}
	defer func() {
		if r := recover(); r != nil {
			ce := fail(fmt.Errorf("panic: %v", r))
			ce.Stack = debug.Stack()
			res, err = nil, ce
		}
	}()
	inst, err := s.Build(x, seed)
	if err != nil {
		return nil, fail(err)
	}
	if intra > 1 && inst.Parallelism == 0 {
		inst.Parallelism = intra
	}
	if s.Obs != nil && inst.Obs == nil {
		inst.Obs = s.Obs
	}
	res, err = inst.RunContext(ctx)
	if err != nil {
		ce := fail(err)
		var rp *replayPanic
		if errors.As(err, &rp) {
			ce.Stack = rp.stack
		}
		return nil, ce
	}
	return res, nil
}

// cellError returns a cell outcome's failure as a *CellError: runCell
// already returns one for every failure, anything else is wrapped
// naming cell (xi, si).
func (s *Sweep) cellError(xi, si int, err error) *CellError {
	var ce *CellError
	if errors.As(err, &ce) {
		return ce
	}
	return &CellError{Sweep: s.Name, XLabel: s.XLabel, X: s.Xs[xi],
		SeedIndex: si, Seed: s.cellSeed(xi, si), Err: err}
}

// budget splits the sweep's worker budget (Parallelism, default
// GOMAXPROCS) for a run with pending cells left. With fewer pending
// cells than workers — the paper-scale shape, one long cell per panel
// point, or a resume with few cells left — the spare workers go inside
// the cells, fanning each cell's OPT proxy and per-policy replays out
// in parallel. Results stay bit-identical because a cell opens its
// Provider once and steps every system through one shared window of
// slots, which every worker finishes before the next is generated.
func (s *Sweep) budget(pending int) (cellWorkers, intra int) {
	workers := s.Parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case pending >= workers:
		return workers, 1
	case pending == 0:
		return 0, 1
	}
	return pending, workers / pending
}

// joinSweepErrs joins a sweep's failures in deterministic order: ctx's
// error, the cell errors by grid position (not scheduling), then the
// harness error, if any.
func joinSweepErrs(ctx context.Context, cellErrs []*CellError, harness error) error {
	sort.Slice(cellErrs, func(i, j int) bool {
		if cellErrs[i].X != cellErrs[j].X {
			return cellErrs[i].X < cellErrs[j].X
		}
		return cellErrs[i].SeedIndex < cellErrs[j].SeedIndex
	})
	errs := make([]error, 0, len(cellErrs)+2)
	errs = append(errs, ctx.Err())
	for _, ce := range cellErrs {
		errs = append(errs, ce)
	}
	return errors.Join(append(errs, harness)...)
}

// RunContext executes all (x, seed) cells on a bounded worker pool and
// folds replications in deterministic order. Robustness semantics:
//
//   - A cell failure (Build/Run error, or a panic in Build or any
//     replay, at any Parallelism) is confined to that cell: the
//     remaining cells complete and the failures come back joined in
//     the returned error, each a *CellError naming its (x, seed) cell.
//   - Canceling ctx stops dispatching new cells; cells already running
//     abort at their next slot boundary. The completed cells are
//     returned as a Partial SweepResult alongside ctx's error, instead
//     of being discarded.
//   - With Checkpoint set, cells the journal holds completed are
//     skipped, and every cell this run completes is journaled before
//     it counts; see the Checkpoint field. Every other cell runs once,
//     so a failed cell fails this run and runs again on the next.
//
// Whenever the returned SweepResult is non-nil its Points are valid
// aggregates of every completed cell, even when err is non-nil.
func (s *Sweep) RunContext(ctx context.Context) (*SweepResult, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	var j *journal
	if s.Checkpoint != "" {
		var err error
		if j, err = openJournal(s.Checkpoint, s.fingerprint()); err != nil {
			return nil, err
		}
		defer j.close() // the success path checks the first close
	}

	type cell struct{ xi, si int }
	type outcome struct {
		cell
		results []Result
		err     error
	}

	// The grid gives the Welford fold a deterministic order regardless
	// of scheduling; okGrid marks which cells actually completed.
	grid := make([][][]Result, len(s.Xs))
	okGrid := make([][]bool, len(s.Xs))
	total := len(s.Xs) * s.Seeds
	todo := make([]cell, 0, total)
	skipped := 0
	for xi, x := range s.Xs {
		grid[xi] = make([][]Result, s.Seeds)
		okGrid[xi] = make([]bool, s.Seeds)
		for si := 0; si < s.Seeds; si++ {
			var raw json.RawMessage
			if j != nil {
				raw = j.done[cellKey{x, si}]
			}
			if raw == nil {
				todo = append(todo, cell{xi, si})
				continue
			}
			res, err := decodeCellResults(raw)
			if err != nil {
				return nil, fmt.Errorf("sim: checkpoint %s: cell %s=%d seed[%d]: %w", s.Checkpoint, s.XLabel, x, si, err)
			}
			grid[xi][si], okGrid[xi][si] = res, true
			skipped++
		}
	}
	cellWorkers, intra := s.budget(len(todo))

	// A journal write failure stops the run without canceling the
	// caller's ctx.
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()
	var journalErr error
	var journalOnce sync.Once
	abort := func(err error) {
		journalOnce.Do(func() { journalErr = err })
		stopRun()
	}
	interrupted := func(err error) bool {
		return runCtx.Err() != nil && errors.Is(err, runCtx.Err())
	}

	jobs := make(chan cell)
	outcomes := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < cellWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				o := outcome{cell: c, err: runCtx.Err()}
				if o.err == nil {
					o.results, o.err = s.runCell(runCtx, c.xi, c.si, intra)
				}
				if j != nil && o.err == nil {
					if err := j.complete(s.Xs[c.xi], c.si, o.results); err != nil {
						abort(err)
						continue
					}
				}
				outcomes <- o
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, c := range todo {
			select {
			case jobs <- c:
			case <-runCtx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outcomes)
	}()

	var cellErrs []*CellError
	completed, failed := 0, 0
	notify := func(o outcome, err error) {
		if s.Progress == nil {
			return
		}
		s.Progress(SweepProgress{
			Sweep: s.Name, XLabel: s.XLabel,
			X: s.Xs[o.xi], SeedIndex: o.si,
			Done: completed, Failed: failed, Skipped: skipped, Total: total,
			Err:     err,
			Results: o.results,
		})
	}
	for o := range outcomes {
		if o.err != nil {
			// A cancellation-induced abort is an interruption, not a
			// cell failure: the cell simply did not complete.
			if interrupted(o.err) {
				continue
			}
			ce := s.cellError(o.xi, o.si, o.err)
			cellErrs = append(cellErrs, ce)
			failed++
			notify(outcome{cell: o.cell}, ce)
			continue
		}
		grid[o.xi][o.si], okGrid[o.xi][o.si] = o.results, true
		completed++
		notify(o, nil)
	}

	out := &SweepResult{Name: s.Name, XLabel: s.XLabel, Partial: skipped+completed < total}
	s.fold(out, grid, okGrid)
	if j != nil && journalErr == nil {
		journalErr = j.close()
	}
	return out, joinSweepErrs(ctx, cellErrs, journalErr)
}

// fold aggregates the completed cells of the (Xs × Seeds) grid into
// out: per-point Welford summaries in deterministic grid order, the
// policy roster from the first completed cell, and the accumulated
// decision counters. okGrid marks which grid cells completed; swept
// values with no completed cell are omitted from out.Points. Cells
// read back from a checkpoint journal fold in their grid position like
// any other, which is what makes a resumed result bit-identical to an
// uninterrupted one.
func (s *Sweep) fold(out *SweepResult, grid [][][]Result, okGrid [][]bool) {
	for xi, x := range s.Xs {
		var any bool
		for si := 0; si < s.Seeds; si++ {
			if okGrid[xi][si] {
				any = true
				break
			}
		}
		if !any {
			continue // no completed cell for this swept value
		}
		ratios := make(map[string]*metrics.Welford)
		thrs := make(map[string]*metrics.Welford)
		var optW metrics.Welford
		for si := 0; si < s.Seeds; si++ {
			for _, r := range grid[xi][si] {
				if ratios[r.Policy] == nil {
					ratios[r.Policy] = &metrics.Welford{}
					thrs[r.Policy] = &metrics.Welford{}
				}
				ratios[r.Policy].Add(r.Ratio)
				thrs[r.Policy].Add(float64(r.Throughput))
				if r.Obs != nil {
					if out.Obs == nil {
						out.Obs = make(map[string]obs.KindCounts)
					}
					c := out.Obs[r.Policy]
					c.Accumulate(r.Obs.Totals)
					out.Obs[r.Policy] = c
				}
			}
			if len(grid[xi][si]) > 0 {
				optW.Add(float64(grid[xi][si][0].OptThroughput))
			}
		}
		if out.Policies == nil {
			for si := 0; si < s.Seeds; si++ {
				if len(grid[xi][si]) > 0 {
					for _, r := range grid[xi][si] {
						out.Policies = append(out.Policies, r.Policy)
					}
					break
				}
			}
		}
		pr := PointResult{
			X:             x,
			Ratio:         make(map[string]metrics.Summary, len(ratios)),
			Throughput:    make(map[string]metrics.Summary, len(thrs)),
			OptThroughput: optW.Summary(),
		}
		//smb:nondet-ok summaries land in a map keyed by the same name, so iteration order cannot reach results
		for name, w := range ratios {
			pr.Ratio[name] = w.Summary()
		}
		//smb:nondet-ok summaries land in a map keyed by the same name, so iteration order cannot reach results
		for name, w := range thrs {
			pr.Throughput[name] = w.Summary()
		}
		out.Points = append(out.Points, pr)
	}
}

// Table renders the sweep as an aligned text table: one row per swept
// value, one column per policy holding the mean competitive ratio
// (± std when more than one seed ran).
func (r *SweepResult) Table() string {
	headers := append([]string{r.XLabel}, r.Policies...)
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		row := make([]string, 0, len(headers))
		row = append(row, strconv.Itoa(p.X))
		for _, name := range r.Policies {
			s := p.Ratio[name]
			cell := formatRatio(s.Mean)
			if s.N > 1 && !math.IsInf(s.Mean, 0) && !math.IsNaN(s.Mean) {
				cell += fmt.Sprintf("±%.2f", s.Std)
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return tablefmt.Render(headers, rows)
}

// formatRatio renders a ratio cell, normalizing the non-finite cases:
// strconv would render NaN as "NaN" and -Inf as a misleading numeric
// "-Inf" mid-table, so both are spelled out like "inf" already was.
func formatRatio(v float64) string {
	switch {
	case math.IsNaN(v):
		return "nan"
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// ObsTable renders the aggregated decision counters as an aligned text
// table — one row per policy in roster order, one column per counter
// lane — or "" when no counters were recorded.
func (r *SweepResult) ObsTable() string {
	if len(r.Obs) == 0 {
		return ""
	}
	headers := []string{"policy", "admits", "drops", "pushouts", "po-work", "po-value", "transmits"}
	rows := make([][]string, 0, len(r.Obs))
	for _, name := range r.Policies {
		c, ok := r.Obs[name]
		if !ok {
			continue
		}
		rows = append(rows, []string{
			name,
			strconv.FormatUint(c.Admits, 10),
			strconv.FormatUint(c.TailDrops, 10),
			strconv.FormatUint(c.PushOuts, 10),
			strconv.FormatUint(c.PushedOutWork, 10),
			strconv.FormatUint(c.PushedOutValue, 10),
			strconv.FormatUint(c.HOLTransmits, 10),
		})
	}
	return tablefmt.Render(headers, rows)
}
