package sim

// Resumable sweeps: with Sweep.Ledger set, the (x, seed) grid runs
// through the crash-safe lease ledger (internal/lease) instead of an
// in-process job queue. A single worker on a private ledger is a
// resumable run (smbsim -checkpoint); several worker processes sharing
// one directory divide the grid. Each worker acquires cells under
// fencing tokens, heartbeats while running them, journals completions
// durably, and finally merges the whole ledger — its own cells and
// everyone else's — through the same fold as a single-process run, so
// the merged SweepResult is bit-identical to running the sweep in one
// process.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"

	"smbm/internal/core"
	"smbm/internal/lease"
	"smbm/internal/obs"
)

// leaseFingerprint renders the sweep's identity as a ledger fingerprint:
// its name, XLabel, a digest of the Xs, Seeds, BaseSeed and the
// Build-supplied ConfigDigest. Resuming under a changed one is refused,
// naming the differing field.
func (s *Sweep) leaseFingerprint() lease.Fingerprint {
	return lease.Fingerprint{
		Sweep:    s.Name,
		XLabel:   s.XLabel,
		XsHash:   xsDigest(s.Xs),
		Seeds:    s.Seeds,
		BaseSeed: s.BaseSeed,
		Config:   s.ConfigDigest,
	}
}

// xsDigest hashes the swept values (count, then each value) with
// FNV-1a, rendering a compact hex fingerprint.
func xsDigest(xs []int) string {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// cellResult is the serialized form of one Result in a ledger complete
// record. The empirical ratio is recomputed on decode because JSON
// cannot encode +Inf.
type cellResult struct {
	Policy        string        `json:"policy"`
	Throughput    int64         `json:"throughput"`
	OptThroughput int64         `json:"opt_throughput"`
	Stats         core.Stats    `json:"stats"`
	Obs           *obs.Snapshot `json:"obs,omitempty"`
}

// encodeCellResults serializes one cell's per-policy results as the
// opaque payload carried by lease-ledger complete records.
func encodeCellResults(results []Result) (json.RawMessage, error) {
	crs := make([]cellResult, len(results))
	for i, r := range results {
		crs[i] = cellResult{
			Policy:        r.Policy,
			Throughput:    r.Throughput,
			OptThroughput: r.OptThroughput,
			Stats:         r.Stats,
			Obs:           r.Obs,
		}
	}
	raw, err := json.Marshal(crs)
	if err != nil {
		return nil, fmt.Errorf("sim: cell results: %w", err)
	}
	return raw, nil
}

// decodeCellResults rehydrates a lease-ledger complete payload.
func decodeCellResults(raw json.RawMessage) ([]Result, error) {
	var crs []cellResult
	if err := json.Unmarshal(raw, &crs); err != nil {
		return nil, fmt.Errorf("sim: cell results: %w", err)
	}
	out := make([]Result, len(crs))
	for i, cr := range crs {
		out[i] = Result{
			Policy:        cr.Policy,
			Throughput:    cr.Throughput,
			OptThroughput: cr.OptThroughput,
			Ratio:         ratio(cr.OptThroughput, cr.Throughput),
			Stats:         cr.Stats,
			Obs:           cr.Obs,
		}
	}
	return out, nil
}

// runLeased executes the sweep as one worker of a ledger run (see
// Sweep.Ledger). Robustness semantics, on top of RunContext's:
//
//   - Cells completed by any worker — this run, a previous incarnation,
//     a process on another machine — are merged, not re-run.
//   - A cell failure consumes one attempt and releases the cell for
//     retry by any worker; a cell whose failures exhaust CellRetries is
//     reported degraded (a warning plus Partial), and the rest of the
//     grid still folds into valid partial tables.
//   - Canceling ctx stops acquiring; running cells abort and their
//     leases are released, so any worker — this one re-run, or another —
//     takes them at once without the interruption consuming an attempt.
func (s *Sweep) runLeased(ctx context.Context) (*SweepResult, error) {
	led, err := lease.Open(lease.Options{
		Dir:         s.Ledger,
		Worker:      s.LedgerWorker,
		Fingerprint: s.leaseFingerprint(),
		TTL:         s.LeaseTTL,
		Retries:     s.CellRetries,
	})
	if err != nil {
		return nil, err
	}
	defer led.Close()

	// The cell list in grid order: Acquire spreads workers across it,
	// Merge partitions it, and xIndex maps a leased cell back to its
	// grid position.
	cells := make([]lease.Cell, 0, len(s.Xs)*s.Seeds)
	xIndex := make(map[int]int, len(s.Xs))
	for xi, x := range s.Xs {
		xIndex[x] = xi
		for si := 0; si < s.Seeds; si++ {
			cells = append(cells, lease.Cell{X: x, SeedIndex: si})
		}
	}
	total := len(cells)

	// The opening scan sizes the run: cells already completed or
	// degraded are skipped (and reported as such), the rest split the
	// worker budget exactly as RunContext's pending cells do.
	st, err := led.Scan()
	if err != nil {
		return nil, err
	}
	skipped := 0
	for _, c := range cells {
		if p := st.Phase(c, led.Retries()); p == lease.PhaseCompleted || p == lease.PhaseDegraded {
			skipped++
		}
	}
	workers, intra := s.budget(total - skipped)

	// A ledger failure (disk gone, corrupt file) stops this worker's
	// acquisition loop without canceling the caller's ctx.
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()

	var mu sync.Mutex
	var cellErrs []*CellError
	var ledgerErr error
	runDone, failed := 0, 0
	abort := func(err error) {
		mu.Lock()
		if ledgerErr == nil {
			ledgerErr = err
		}
		mu.Unlock()
		stopRun()
	}
	// progressMu serializes Progress deliveries: Sweep.Progress promises
	// the callback never runs concurrently with itself, and the leased
	// path has N worker goroutines reaching cell outcomes. Holding the
	// lock across both the snapshot and the callback also keeps the
	// delivered Done/Failed counters monotone in delivery order.
	var progressMu sync.Mutex
	notify := func(c lease.Cell, err error, results []Result) {
		if s.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		mu.Lock()
		p := SweepProgress{
			Sweep: s.Name, XLabel: s.XLabel,
			X: c.X, SeedIndex: c.SeedIndex,
			Done: runDone, Failed: failed, Skipped: skipped, Total: total,
			Err:     err,
			Results: results,
		}
		mu.Unlock()
		s.Progress(p)
	}

	if s.LedgerObserver {
		// Coordinator: no compute, just wait for the fleet to converge.
		if err := led.Wait(ctx, cells); err != nil {
			return nil, err
		}
		workers = 0
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scratch
			for {
				ls, status, err := led.Acquire(runCtx, cells)
				if err != nil {
					if runCtx.Err() == nil {
						abort(err)
					}
					return
				}
				if status == lease.StatusDone {
					return
				}
				// Heartbeats keep the lease alive for as long as the
				// cell actually runs; a renewal failure is advisory (the
				// lease lapses and another worker reclaims the cell).
				stopHB := led.Heartbeat(runCtx, ls)
				res, runErr := s.runCell(runCtx, &sc, xIndex[ls.Cell.X], ls.Cell.SeedIndex, intra)
				stopHB()
				if runErr != nil {
					if runCtx.Err() != nil && errors.Is(runErr, runCtx.Err()) {
						// Interrupted, not failed: give the cell back
						// without consuming an attempt.
						if err := led.Release(ls); err != nil {
							abort(err)
						}
						return
					}
					ce := s.cellError(xIndex[ls.Cell.X], ls.Cell.SeedIndex, runErr)
					mu.Lock()
					cellErrs = append(cellErrs, ce)
					failed++
					mu.Unlock()
					if err := led.Abandon(ls, ce.Error()); err != nil {
						abort(err)
						return
					}
					notify(ls.Cell, ce, nil)
					continue
				}
				payload, err := encodeCellResults(res)
				if err == nil {
					err = led.Complete(ls, payload)
				}
				if err != nil {
					abort(err)
					return
				}
				mu.Lock()
				runDone++
				mu.Unlock()
				notify(ls.Cell, nil, res)
			}
		}()
	}
	wg.Wait()

	// Merge the whole ledger — every worker's cells — and fold through
	// the same deterministic path as a single-process run.
	done, degraded, err := led.Merge(cells)
	if err != nil {
		return nil, err
	}
	grid := make([][][]Result, len(s.Xs))
	okGrid := make([][]bool, len(s.Xs))
	for xi := range s.Xs {
		grid[xi] = make([][]Result, s.Seeds)
		okGrid[xi] = make([]bool, s.Seeds)
	}
	completed := 0
	//smb:nondet-ok payloads land at their cell's fixed grid position, so iteration order cannot reach results
	for c, payload := range done {
		res, err := decodeCellResults(payload)
		if err != nil {
			return nil, fmt.Errorf("sim: ledger %s: cell %s: %w", s.Ledger, c, err)
		}
		grid[xIndex[c.X]][c.SeedIndex] = res
		okGrid[xIndex[c.X]][c.SeedIndex] = true
		completed++
	}
	var warnings []string
	for _, d := range degraded {
		w := fmt.Sprintf("ledger %s: cell %s degraded after %d failed attempts", s.Ledger, d.Cell, d.Attempts)
		if d.LastError != "" {
			w += ": last error: " + d.LastError
		}
		warnings = append(warnings, w)
	}

	out := &SweepResult{Name: s.Name, XLabel: s.XLabel, Partial: completed < total, Warnings: warnings}
	s.fold(out, grid, okGrid)
	counts := led.Counters()
	out.Lease = &counts

	mu.Lock()
	defer mu.Unlock()
	return out, joinSweepErrs(ctx, cellErrs, ledgerErr)
}
