package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// leaseTestSweep returns testSweep configured for leased mode.
func leaseTestSweep(dir, worker string) *Sweep {
	s := testSweep()
	s.Ledger = dir
	s.LedgerWorker = worker
	s.LeaseTTL = time.Minute
	return s
}

// stripHarness zeroes the fields that legitimately differ between a
// leased and a plain run — harness-level observations that never enter
// the merged points.
func stripHarness(r *SweepResult) *SweepResult {
	cp := *r
	cp.Warnings = nil
	cp.Lease = nil
	return &cp
}

func TestLeasedMatchesPlainRun(t *testing.T) {
	plain, err := testSweep().Run()
	if err != nil {
		t.Fatal(err)
	}
	leased, err := leaseTestSweep(t.TempDir(), "w0").Run()
	if err != nil {
		t.Fatal(err)
	}
	if leased.Lease == nil {
		t.Fatal("leased run has no lease counters")
	}
	want, _ := json.Marshal(stripHarness(plain))
	got, _ := json.Marshal(stripHarness(leased))
	if string(got) != string(want) {
		t.Fatalf("leased result differs from plain run:\n got %s\nwant %s", got, want)
	}
}

func TestLeasedTwoWorkersShareTheGrid(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	results := make([]*SweepResult, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := leaseTestSweep(dir, fmt.Sprintf("w%d", i))
			s.Parallelism = 2
			results[i], errs[i] = s.Run()
		}(i)
	}
	wg.Wait()
	plain, err := testSweep().Run()
	if err != nil {
		t.Fatal(err)
	}
	var totalCompletes uint64
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if r.Partial {
			t.Fatalf("worker %d: partial", i)
		}
		// Every worker merges the full grid, so both see the same —
		// single-process — result.
		want, _ := json.Marshal(stripHarness(plain))
		got, _ := json.Marshal(stripHarness(r))
		if string(got) != string(want) {
			t.Fatalf("worker %d result differs from plain run:\n got %s\nwant %s", i, got, want)
		}
		totalCompletes += r.Lease.Completes
	}
	// Execution is at-least-once (a lease race can duplicate a cell);
	// the merge is what must be exactly-once, which the bit-identity
	// check above already proves. Here just check both workers actually
	// shared the grid rather than one running it all twice.
	if want := uint64(len(plain.Points) * 3); totalCompletes < want {
		t.Fatalf("workers completed %d cells total, want at least %d", totalCompletes, want)
	}
	for i, r := range results {
		if r.Lease.Completes == 0 {
			t.Logf("worker %d completed no cells (legal but unexpected on this grid)", i)
		}
	}
}

func TestLeasedResumesAfterAbandonedRun(t *testing.T) {
	dir := t.TempDir()

	// First incarnation completes part of the grid and stops: cancel
	// after the first completion.
	ctx, cancel := context.WithCancel(context.Background())
	first := leaseTestSweep(dir, "w0")
	first.Parallelism = 1
	var firstDone int
	first.Progress = func(p SweepProgress) {
		if p.Err == nil {
			firstDone++
			cancel()
		}
	}
	res1, err := first.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: %v", err)
	}
	if !res1.Partial || firstDone == 0 {
		t.Fatalf("interrupted run: partial=%v done=%d", res1.Partial, firstDone)
	}

	// A fresh incarnation finishes the rest and merges to the full,
	// bit-identical result.
	second := leaseTestSweep(dir, "w0")
	res2, err := second.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Partial {
		t.Fatal("resumed run still partial")
	}
	plain, err := testSweep().Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(stripHarness(plain))
	got, _ := json.Marshal(stripHarness(res2))
	if string(got) != string(want) {
		t.Fatalf("resumed result differs from plain run:\n got %s\nwant %s", got, want)
	}
	if res2.Lease.Completes >= uint64(len(testSweep().Xs)*3) {
		t.Fatalf("second run re-ran everything (%d completes); cells from the first run were not merged", res2.Lease.Completes)
	}
}

func TestLeasedTransientFailureRetries(t *testing.T) {
	var failures atomic.Int32
	s := leaseTestSweep(t.TempDir(), "w0")
	build := s.Build
	s.Build = func(x int, seed int64) (Instance, error) {
		// The first attempt at x=4 fails; the retry succeeds.
		if x == 4 && failures.CompareAndSwap(0, 1) {
			return Instance{}, errors.New("transient build failure")
		}
		return build(x, seed)
	}
	res, err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "transient build failure") {
		t.Fatalf("err = %v, want the transient failure reported", err)
	}
	if res.Partial {
		t.Fatal("partial despite successful retry")
	}
	if res.Lease.Abandons != 1 {
		t.Fatalf("abandons = %d, want 1", res.Lease.Abandons)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points %d, want 3 (retry completed the cell)", len(res.Points))
	}
}

func TestLeasedDegradedCellStillRendersPartialTables(t *testing.T) {
	s := leaseTestSweep(t.TempDir(), "w0")
	s.CellRetries = -1 // no retries: first failure degrades
	build := s.Build
	s.Build = func(x int, seed int64) (Instance, error) {
		if x == 4 {
			return Instance{}, errors.New("permanent failure")
		}
		return build(x, seed)
	}
	res, err := s.Run()
	if err == nil {
		t.Fatal("want cell errors reported")
	}
	if !res.Partial {
		t.Fatal("degraded run must be partial")
	}
	// x=4 is omitted; the other points still render.
	if len(res.Points) != 2 {
		t.Fatalf("points %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.X == 4 {
			t.Fatal("degraded x=4 leaked into the points")
		}
	}
	var degradedWarnings int
	for _, w := range res.Warnings {
		if strings.Contains(w, "degraded") {
			degradedWarnings++
		}
	}
	if degradedWarnings != 3 {
		t.Fatalf("degraded warnings = %d (%q), want 3 (one per seed)", degradedWarnings, res.Warnings)
	}
	if res.Table() == "" {
		t.Fatal("partial table did not render")
	}
}

// TestLeasedProgressSerializedDelivery pins the Sweep.Progress
// contract in leased mode: deliveries are serialized even though N
// worker goroutines produce cell outcomes, so a callback may mutate
// its own unsynchronized state. The callback here does exactly that —
// a plain counter and map, which the race detector would flag on any
// concurrent delivery — and asserts the delivered Done counter is
// monotone in delivery order.
func TestLeasedProgressSerializedDelivery(t *testing.T) {
	s := leaseTestSweep(t.TempDir(), "w0")
	s.Parallelism = 4
	deliveries := 0
	lastDone := 0
	seen := map[[2]int]int{}
	s.Progress = func(p SweepProgress) {
		deliveries++
		seen[[2]int{p.X, p.SeedIndex}]++
		if p.Done < lastDone {
			t.Errorf("Done went backwards: %d after %d", p.Done, lastDone)
		}
		lastDone = p.Done
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := len(s.Xs) * s.Seeds
	if deliveries < total {
		t.Fatalf("got %d progress deliveries, want at least %d", deliveries, total)
	}
	if len(seen) != total {
		t.Fatalf("progress covered %d distinct cells, want %d", len(seen), total)
	}
	// Execution is at-least-once (a lease race can duplicate a cell),
	// so Done can exceed the grid size; monotone delivery — asserted in
	// the callback — guarantees the last delivery carries the maximum.
	if lastDone < total {
		t.Fatalf("final delivered Done = %d, want at least %d", lastDone, total)
	}
	if res.Partial {
		t.Fatalf("single-worker leased run came back partial")
	}
}
