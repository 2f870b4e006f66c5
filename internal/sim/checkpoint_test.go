package sim

// Resumable runs as smbsim -checkpoint makes them: a cell journal in a
// checkpoint directory. A re-run resumes from the journal, a changed
// configuration is refused naming the differing field, and crash
// debris (a torn final record) costs at most the cell it tore.

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smbm/internal/pkt"
)

// ckptSweep is testSweep as a -checkpoint run: a journal in dir with a
// representative cell-config digest.
func ckptSweep(dir string) *Sweep {
	s := testSweep()
	s.Checkpoint = dir
	s.ConfigDigest = "model=processing;B=4;C=1;policies=Greedy,LWD"
	return s
}

// countBuilds makes s count its cell builds into n.
func countBuilds(s *Sweep, n *int32) *Sweep {
	build := s.Build
	s.Build = func(x int, seed int64) (Instance, error) {
		atomic.AddInt32(n, 1)
		return build(x, seed)
	}
	return s
}

// journalLines returns the non-empty lines of the -checkpoint run's
// journal in dir.
func journalLines(t *testing.T, dir string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "local.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
}

// plainResult runs testSweep in memory, the oracle every resumed run
// must equal.
func plainResult(t *testing.T) *SweepResult {
	t.Helper()
	res, err := testSweep().Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCheckpointResumeRejectsChangedConfig pins the fingerprint end to
// end, from ConfigDigest through Sweep.fingerprint to the journal header:
// after a run completes, re-running with any sweep parameter changed
// must refuse to resume, naming the differing field instead of
// silently merging cells journaled under different flags.
func TestCheckpointResumeRejectsChangedConfig(t *testing.T) {
	cases := []struct {
		field  string
		mutate func(*Sweep)
	}{
		{"x_label", func(s *Sweep) { s.XLabel = "B" }},
		{"xs", func(s *Sweep) { s.Xs = []int{2, 4} }},
		{"seeds", func(s *Sweep) { s.Seeds = 5 }},
		{"base_seed", func(s *Sweep) { s.BaseSeed = 99 }},
		{"config", func(s *Sweep) { s.ConfigDigest = strings.Replace(s.ConfigDigest, "B=4", "B=8", 1) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.field, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := ckptSweep(dir).Run(); err != nil {
				t.Fatal(err)
			}
			s := ckptSweep(dir)
			tc.mutate(s)
			_, err := s.Run()
			if err == nil {
				t.Fatalf("resume with changed %s succeeded", tc.field)
			}
			if !strings.Contains(err.Error(), "configuration changed") {
				t.Errorf("error %q does not say the configuration changed", err)
			}
			if !strings.Contains(err.Error(), tc.field+":") {
				t.Errorf("error %q does not name the differing field %q", err, tc.field)
			}
		})
	}
}

// TestCheckpointResumeMatchingConfigIsClean asserts the happy path: an
// unchanged re-run resumes every cell without recomputation or journal
// writes and produces a full result.
func TestCheckpointResumeMatchingConfigIsClean(t *testing.T) {
	dir := t.TempDir()
	if _, err := ckptSweep(dir).Run(); err != nil {
		t.Fatal(err)
	}
	before := len(journalLines(t, dir))
	res, err := ckptSweep(dir).Run()
	if err != nil {
		t.Fatal(err)
	}
	if after := len(journalLines(t, dir)); len(res.Points) != 3 || res.Partial || after != before {
		t.Errorf("resumed result: %d points, partial=%v, journal %d → %d lines; want 3, false, no journal writes", len(res.Points), res.Partial, before, after)
	}
}

// TestCheckpointMissingFileIsEmpty pins the first-run behaviour: a
// checkpoint directory that does not exist yet is created, its journal
// opens with the fingerprint header, and the whole grid runs.
func TestCheckpointMissingFileIsEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent", "run.ckpt")
	var builds int32
	if _, err := countBuilds(ckptSweep(dir), &builds).Run(); err != nil {
		t.Fatal(err)
	}
	if builds != 9 {
		t.Fatalf("first run built %d cells, want 9", builds)
	}
	if first := journalLines(t, dir)[0]; !strings.Contains(first, `"kind":"header"`) {
		t.Fatalf("journal opens with %q, want the fingerprint header", first)
	}
}

// TestCheckpointToleratesTornFinalLine pins the crash-resume contract:
// a partial record at the very end of the journal — the signature of a
// write torn by a crash mid-append — is dropped, every intact record
// before it still counts, and the resume rebuilds only the torn cell
// and matches a plain run.
func TestCheckpointToleratesTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	s := ckptSweep(dir)
	s.Parallelism = 1
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, dir)
	if last := lines[len(lines)-1]; !strings.Contains(last, `"kind":"complete"`) {
		t.Fatalf("final record %q is not a completion", last)
	}
	path := filepath.Join(dir, "local.jsonl")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	var builds int32
	resumed, err := countBuilds(ckptSweep(dir), &builds).Run()
	if err != nil {
		t.Fatalf("resume over a torn tail: %v", err)
	}
	if builds != 1 {
		t.Errorf("resume rebuilt %d cells, want only the torn one", builds)
	}
	if !reflect.DeepEqual(resumed, plainResult(t)) {
		t.Error("resumed result differs from a plain run")
	}
	for _, line := range journalLines(t, dir) {
		if !json.Valid([]byte(line)) {
			t.Fatalf("resume left a malformed line: %q", line)
		}
	}
}

// TestCheckpointRejectsMidFileCorruption asserts that a malformed line
// with more data after it is corruption, not a torn tail: resuming past
// it would silently re-run some cells and trust the rest of a damaged
// file, so the run must fail and name the offending line.
func TestCheckpointRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	if _, err := ckptSweep(dir).Run(); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, dir)
	corrupt := append([]string{lines[0], "GARBAGE not json"}, lines[1:]...)
	if err := os.WriteFile(filepath.Join(dir, "local.jsonl"), []byte(strings.Join(corrupt, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ckptSweep(dir).Run()
	if err == nil || !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("resume over mid-file corruption: got %v, want a line-2 corruption error", err)
	}
}

// TestCheckpointTornHeaderIsRecovered covers the crash window between
// creating the journal and finishing its header write: the partial
// header is a torn final record, so the run drops it, writes a fresh
// header, and the next run resumes cleanly.
func TestCheckpointTornHeaderIsRecovered(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "local.jsonl"), []byte(`{"kind":"header","v":1,"sweep":"test","hea`), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := ckptSweep(dir).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("run over a torn header came back partial")
	}
	if first := journalLines(t, dir)[0]; !strings.Contains(first, `"kind":"header"`) || !json.Valid([]byte(first)) {
		t.Fatalf("recovered journal opens with %q, want an intact header", first)
	}
	var builds int32
	if _, err := countBuilds(ckptSweep(dir), &builds).Run(); err != nil || builds != 0 {
		t.Fatalf("re-run after torn-header recovery: %d builds, err %v; want 0, nil", builds, err)
	}
}

// TestCheckpointForeignHeaderIgnored pins the shared-directory
// contract: another sweep's header — even one with a wildly different
// configuration — must not disturb this sweep's run or resume.
func TestCheckpointForeignHeaderIgnored(t *testing.T) {
	dir := t.TempDir()
	foreign := `{"kind":"header","v":1,"sweep":"other","header":{"sweep":"other","x_label":"B","xs_hash":"deadbeef","seeds":9,"base_seed":7,"config":"B=999"}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "local.jsonl"), []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		res, err := ckptSweep(dir).Run()
		if err != nil {
			t.Fatalf("run %d alongside a foreign header: %v", run, err)
		}
		if res.Partial {
			t.Fatalf("run %d came back partial", run)
		}
	}
}

func TestSweepCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	clean := plainResult(t)

	var builds int32
	first, err := countBuilds(ckptSweep(dir), &builds).Run()
	if err != nil {
		t.Fatal(err)
	}
	if builds != 9 {
		t.Fatalf("first run built %d cells, want 9", builds)
	}
	if !reflect.DeepEqual(first, clean) {
		t.Error("checkpointed run differs from plain run")
	}

	// A re-run against the same journal skips every cell.
	second, err := countBuilds(ckptSweep(dir), &builds).Run()
	if err != nil {
		t.Fatal(err)
	}
	if builds != 9 {
		t.Fatalf("resumed run rebuilt cells: %d total builds, want 9", builds)
	}
	if !reflect.DeepEqual(second, clean) {
		t.Error("resumed result differs from plain run")
	}
}

// TestSweepCheckpointResumesInterruptedRun pins the SIGINT contract:
// the interrupted run journals nothing for its in-flight cell, so the
// resume rebuilds exactly the lost cells, and its progress still adds
// up to the full grid.
func TestSweepCheckpointResumesInterruptedRun(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var builds int32
	s := ckptSweep(dir)
	s.Parallelism = 1
	s.Build = func(x int, seed int64) (Instance, error) {
		if atomic.AddInt32(&builds, 1) == 4 {
			cancel()
		}
		return buildCell(x, seed)
	}
	res, err := s.RunContext(ctx)
	if !errors.Is(err, context.Canceled) || res == nil || !res.Partial {
		t.Fatalf("interrupted run: res=%+v err=%v", res, err)
	}

	// Resume: only the six cells the interruption lost are rebuilt.
	resumeCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	var resumedBuilds int32
	var last SweepProgress
	s = countBuilds(ckptSweep(dir), &resumedBuilds)
	s.Progress = func(p SweepProgress) { last = p }
	resumed, err := s.RunContext(resumeCtx)
	if err != nil {
		t.Fatal(err)
	}
	if resumedBuilds != 6 {
		t.Errorf("resume rebuilt %d cells, want 6", resumedBuilds)
	}
	if resumed.Partial {
		t.Error("resumed run still partial")
	}
	if !reflect.DeepEqual(resumed, plainResult(t)) {
		t.Error("resumed result differs from an uninterrupted run")
	}
	if last.Skipped != 3 || last.Done+last.Skipped != last.Total {
		t.Errorf("final progress done=%d skipped=%d total=%d, want 6+3=9", last.Done, last.Skipped, last.Total)
	}
}

func TestSweepCheckpointIgnoresOtherSweeps(t *testing.T) {
	dir := t.TempDir()
	if _, err := ckptSweep(dir).Run(); err != nil {
		t.Fatal(err)
	}
	// A differently named sweep sharing the directory rebuilds everything.
	var builds int32
	other := countBuilds(ckptSweep(dir), &builds)
	other.Name = "other"
	if _, err := other.Run(); err != nil {
		t.Fatal(err)
	}
	if builds != 9 {
		t.Errorf("other sweep built %d cells, want 9", builds)
	}
}

// firstStepProbe wraps a System and calls first before its first Step.
type firstStepProbe struct {
	System
	first func()
}

// Step implements System.
func (p *firstStepProbe) Step(arrivals []pkt.Packet) error {
	if p.first != nil {
		p.first()
		p.first = nil
	}
	return p.System.Step(arrivals)
}

// TestCheckpointResumeFansOutFewCells pins the budget split on a
// checkpointed resume: a resume with two cells left on eight workers must spend
// the spare workers inside the cells (four each), observed as each
// cell's first stepping replay overlapping a sibling replay's first
// Step in the same window.
func TestCheckpointResumeFansOutFewCells(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var builds int32
	s := ckptSweep(dir)
	s.Parallelism = 1
	s.Build = func(x int, seed int64) (Instance, error) {
		if atomic.AddInt32(&builds, 1) == 8 {
			cancel()
		}
		return buildCell(x, seed)
	}
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: %v", err)
	}

	var cells, fanned int32
	s = ckptSweep(dir)
	s.Parallelism = 8
	s.Build = func(x int, seed int64) (Instance, error) {
		atomic.AddInt32(&cells, 1)
		inst, err := buildCell(x, seed)
		var started int32
		inst.Wrap = func(sys System) (System, error) {
			return &firstStepProbe{System: sys, first: func() {
				if atomic.AddInt32(&started, 1) > 1 {
					return
				}
				// Serial replays cannot reach a second Step while this
				// one waits.
				for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					if atomic.LoadInt32(&started) > 1 {
						atomic.AddInt32(&fanned, 1)
						break
					}
				}
			}}, nil
		}
		return inst, err
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if cells != 2 || fanned != 2 {
		t.Fatalf("resume ran %d cells, %d with parallel replays; want 2 and 2", cells, fanned)
	}
}

// countRecords counts the journal records of one kind in dir.
func countRecords(t *testing.T, dir, kind string) int {
	t.Helper()
	n := 0
	for _, line := range journalLines(t, dir) {
		if strings.Contains(line, `"kind":"`+kind+`"`) {
			n++
		}
	}
	return n
}

func TestLeasedMatchesPlainRun(t *testing.T) {
	plain, err := testSweep().Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	checkpointed, err := ckptSweep(dir).Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := countRecords(t, dir, kindComplete); n != 9 {
		t.Fatalf("journal holds %d complete records, want 9", n)
	}
	want, _ := json.Marshal(plain)
	got, _ := json.Marshal(checkpointed)
	if string(got) != string(want) {
		t.Fatalf("checkpointed result differs from plain run:\n got %s\nwant %s", got, want)
	}
}

func TestLeasedResumesAfterAbandonedRun(t *testing.T) {
	dir := t.TempDir()

	// First run completes part of the grid and stops: cancel after the
	// first completion.
	ctx, cancel := context.WithCancel(context.Background())
	first := ckptSweep(dir)
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

	// A fresh run finishes the rest and folds to the full, bit-identical
	// result.
	second := ckptSweep(dir)
	var secondDone int
	second.Progress = func(p SweepProgress) {
		if p.Err == nil {
			secondDone++
		}
	}
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
	want, _ := json.Marshal(plain)
	got, _ := json.Marshal(res2)
	if string(got) != string(want) {
		t.Fatalf("resumed result differs from plain run:\n got %s\nwant %s", got, want)
	}
	if secondDone >= len(testSweep().Xs)*3 {
		t.Fatalf("second run re-ran everything (%d completes); cells from the first run were not resumed", secondDone)
	}
}

// TestCheckpointFailingCellRunsOncePerRun pins the run-once contract
// of a checkpointed run: a cell whose Build always fails is built once,
// fails the run with a *CellError naming it, and leaves the rest of the
// grid rendered as a partial table. Nothing is journaled for it, so a
// resume builds it exactly once more and skips every other cell.
func TestCheckpointFailingCellRunsOncePerRun(t *testing.T) {
	dir := t.TempDir()
	for run, wantBuilds := range []int32{8, 0} {
		var failing, builds int32
		s := countBuilds(ckptSweep(dir), &builds)
		victim := s.cellSeed(1, 1) // x=4, seed[1]
		build := s.Build
		s.Build = func(x int, seed int64) (Instance, error) {
			if seed == victim {
				atomic.AddInt32(&failing, 1)
				return Instance{}, errors.New("permanent failure")
			}
			return build(x, seed)
		}
		res, err := s.Run()
		var ce *CellError
		if !errors.As(err, &ce) || ce.X != 4 || ce.SeedIndex != 1 || !strings.Contains(err.Error(), "permanent failure") {
			t.Fatalf("run %d: err = %v, want the x=4 seed[1] cell's failure", run, err)
		}
		if failing != 1 || builds != wantBuilds {
			t.Errorf("run %d built the failing cell %d times and %d others, want 1 and %d", run, failing, builds, wantBuilds)
		}
		if !res.Partial || len(res.Points) != 3 || res.Points[1].Ratio["Greedy"].N != 2 || res.Table() == "" {
			t.Errorf("run %d: partial=%v, %d points; want a partial table of all 3 points, x=4 from 2 seeds", run, res.Partial, len(res.Points))
		}
		if n := countRecords(t, dir, kindComplete); n != 8 {
			t.Errorf("run %d: journal holds %d completes, want 8", run, n)
		}
	}
}

// TestLeasedProgressSerializedDelivery pins the Sweep.Progress
// contract in a checkpointed run: deliveries are serialized even
// though N worker goroutines produce cell outcomes, so a callback may
// mutate its own unsynchronized state. The callback here does exactly
// that — a plain counter and map, which the race detector would flag on
// any concurrent delivery — and asserts the delivered Done counter is
// monotone in delivery order.
func TestLeasedProgressSerializedDelivery(t *testing.T) {
	s := ckptSweep(t.TempDir())
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
	if lastDone < total {
		t.Fatalf("final delivered Done = %d, want at least %d", lastDone, total)
	}
	if res.Partial {
		t.Fatalf("checkpointed run came back partial")
	}
}
