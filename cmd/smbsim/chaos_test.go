package main

// Crash chaos for -checkpoint: a real smbsim process is SIGKILLed
// mid-cell at seeded times, its journal is torn at a seeded byte inside
// its final record between restarts — the debris a crash mid-append
// leaves — and the run that finally completes must print -csv output
// byte-identical to an uninterrupted run's. The schedule derives from
// SMBM_CHAOS_SEED (default 1), so a failing schedule replays exactly.
// `make chaos` runs these tests.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// envSeed names the variable that seeds the kill/tear schedule.
const envSeed = "SMBM_CHAOS_SEED"

// chaosKills is how many times TestChaosConvergesBitIdentical kills
// the run before letting it finish.
const chaosKills = 3

// chaosRNG returns the schedule's random source, logging its seed.
func chaosRNG(t *testing.T) *rand.Rand {
	t.Helper()
	seed := int64(1)
	if v := os.Getenv(envSeed); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("%s=%q: %v", envSeed, v, err)
		}
		seed = parsed
	}
	t.Logf("kill/tear schedule seed: %d (set %s to replay)", seed, envSeed)
	return rand.New(rand.NewSource(seed))
}

// journalTail returns the journal's size and its final line (without
// the newline), or 0 and "" when the journal does not exist yet.
func journalTail(path string) (int64, string) {
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) == 0 {
		return 0, ""
	}
	body := bytes.TrimRight(raw, "\n")
	return int64(len(raw)), string(body[bytes.LastIndexByte(body, '\n')+1:])
}

// leaseRecord is the part of a journal record the harness reads.
type leaseRecord struct {
	Kind      string `json:"kind"`
	X         int    `json:"x"`
	SeedIndex int    `json:"seed_index"`
}

// asLease parses line as an intact lease record.
func asLease(line string) (leaseRecord, bool) {
	var r leaseRecord
	err := json.Unmarshal([]byte(line), &r)
	return r, err == nil && r.Kind == "lease"
}

// runUntilKilled starts smbsim with args and SIGKILLs it once ready
// reports true for the journal's size and final line, or gives up
// when the process exits first. It reports whether the kill landed.
func runUntilKilled(t *testing.T, bin, journal string, args []string, ready func(size int64, last string) bool) bool {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting smbsim: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	deadline := time.After(20 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("smbsim exited before the kill: %v\n%s", err, errOut.String())
			}
			return false
		case <-deadline:
			cmd.Process.Kill()
			<-done
			t.Fatalf("journal never became ready to kill\n%s", errOut.String())
		case <-time.After(5 * time.Millisecond):
		}
		if size, last := journalTail(journal); ready(size, last) {
			cmd.Process.Kill()
			<-done
			return true
		}
	}
}

// tearFinalRecord truncates the journal at a seeded byte inside its
// final record, keeping at least the record's first byte.
func tearFinalRecord(t *testing.T, path string, rng *rand.Rand) {
	t.Helper()
	size, last := journalTail(path)
	if size == 0 {
		return
	}
	start := size - int64(len(last)) - 1
	cut := start + 1 + rng.Int63n(int64(len(last)))
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	t.Logf("tore %s from %d to %d bytes", path, size, cut)
}

// finish runs smbsim with args to completion and returns its stdout.
func finish(t *testing.T, bin string, args []string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("smbsim %v: %v\n%s", args, err, errOut.String())
	}
	return out.String()
}

// TestChaosConvergesBitIdentical kills a checkpointed run three times
// at seeded moments after it has started journaling, tears the journal
// inside its final record after each kill, and requires the run that
// finally completes to print the uninterrupted run's -csv bytes.
func TestChaosConvergesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second subprocess harness; skipped with -short")
	}
	rng := chaosRNG(t)
	bin, err := binary()
	if err != nil {
		t.Fatalf("building smbsim: %v", err)
	}
	oracle := finish(t, bin, sweepArgs())

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	journal := filepath.Join(ckpt, "local.jsonl")
	// Each kill costs the cells in flight one attempt, and the tear can
	// cost the cell whose record it cuts one more, so the budget covers
	// every kill landing on one cell.
	args := sweepArgs("-checkpoint", ckpt, "-cell-retries", strconv.Itoa(2*chaosKills))
	for kill := 1; kill <= chaosKills; kill++ {
		// The journal's size changes once the new process has opened it
		// (dropping the torn tail) or appended to it; from the first
		// moment after that when a lease is the final record — a cell is
		// in flight — the kill waits a seeded delay.
		start, _ := journalTail(journal)
		var running time.Time
		delay := time.Duration(rng.Intn(400)) * time.Millisecond
		killed := runUntilKilled(t, bin, journal, args, func(size int64, last string) bool {
			if _, ok := asLease(last); ok && running.IsZero() && size != start {
				running = time.Now()
			}
			return !running.IsZero() && time.Since(running) >= delay
		})
		t.Logf("kill %d: %v after a cell was in flight, landed=%v", kill, delay, killed)
		tearFinalRecord(t, journal, rng)
	}
	if got := finish(t, bin, args); got != oracle {
		t.Fatalf("resumed output differs from the uninterrupted run:\n got:\n%s\nwant:\n%s", got, oracle)
	}
}

// TestChaosRepeatedCrashDegradesCell kills a one-worker checkpointed
// run whenever a cell is in flight until one cell has died twice. With
// -cell-retries 1 that spends its budget, so the next run skips it and
// reports it degraded, and the partial table still renders every swept
// value from the remaining cells.
func TestChaosRepeatedCrashDegradesCell(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second subprocess harness; skipped with -short")
	}
	bin, err := binary()
	if err != nil {
		t.Fatalf("building smbsim: %v", err)
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	journal := filepath.Join(ckpt, "local.jsonl")
	args := sweepArgs("-checkpoint", ckpt, "-cell-retries", "1", "-workers", "1")

	// One worker runs cells in grid order, so a final lease record is the
	// one cell in flight, and the cell a kill lands on is the first the
	// restart runs again.
	crashes := map[leaseRecord]int{}
	var victim leaseRecord
	for round := 1; crashes[victim] < 2; round++ {
		if round > 8 {
			t.Fatalf("no cell died twice in 8 kills: %v", crashes)
		}
		start, _ := journalTail(journal)
		runUntilKilled(t, bin, journal, args, func(size int64, last string) bool {
			_, ok := asLease(last)
			return ok && size != start
		})
		// The cell may have completed between the poll and the kill;
		// only a lease that is still the final record died.
		_, last := journalTail(journal)
		if c, ok := asLease(last); ok {
			crashes[c]++
			victim = c
		}
	}
	t.Logf("cell %+v died twice", victim)

	out := finish(t, bin, args)
	oracle := finish(t, bin, sweepArgs())
	want := "# warning: checkpoint " + ckpt + ": cell k=" + strconv.Itoa(victim.X) +
		" seed[" + strconv.Itoa(victim.SeedIndex) + "] degraded after 2 failed attempts"
	if !strings.Contains(out, want) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
	if !strings.Contains(out, "# fig5.1, partial\n") {
		t.Fatalf("output lacks the partial table marker:\n%s", out)
	}
	// Every swept value keeps a row: the degraded cell's other seed
	// still folds.
	if got, want := strings.Count(out, "\n"), strings.Count(oracle, "\n")+1; got != want {
		t.Fatalf("partial output has %d lines, want %d (the oracle's plus one warning):\n%s", got, want, out)
	}
}
