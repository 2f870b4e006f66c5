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

// completes counts the journal's intact complete records: lines ended
// by their newline, so a record torn mid-append does not count.
func completes(path string) int {
	raw, _ := os.ReadFile(path)
	n := 0
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if bytes.HasSuffix(line, []byte("\n")) && bytes.Contains(line, []byte(`"kind":"complete"`)) {
			n++
		}
	}
	return n
}

// runUntilKilled starts smbsim with args and SIGKILLs it once ready
// reports true, polling every few milliseconds, or gives up when the
// process exits first. It reports whether the kill landed.
func runUntilKilled(t *testing.T, bin string, args []string, ready func() bool) bool {
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
			t.Fatalf("smbsim never became ready to kill\n%s", errOut.String())
		case <-time.After(2 * time.Millisecond):
		}
		if ready() {
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
// at seeded moments after it has journaled a cell, tears the journal
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
	args := sweepArgs("-checkpoint", ckpt)
	for kill := 1; kill <= chaosKills; kill++ {
		// Once the new process has journaled a cell, other cells are in
		// flight; the kill waits a seeded delay after that.
		start := completes(journal)
		var grown time.Time
		delay := time.Duration(rng.Intn(100)) * time.Millisecond
		killed := runUntilKilled(t, bin, args, func() bool {
			if grown.IsZero() && completes(journal) > start {
				grown = time.Now()
			}
			return !grown.IsZero() && time.Since(grown) >= delay
		})
		t.Logf("kill %d: %v after a cell was journaled, landed=%v", kill, delay, killed)
		tearFinalRecord(t, journal, rng)
	}
	if got := finish(t, bin, args); got != oracle {
		t.Fatalf("resumed output differs from the uninterrupted run:\n got:\n%s\nwant:\n%s", got, oracle)
	}
}

// TestChaosRepeatedKillsOnOneCellConverge kills a one-worker
// checkpointed run four times while the same cell is in flight: each
// kill lands a seeded delay after the process starts, before its first
// cell can finish, so the journal does not grow; a round in which a
// cell completed anyway is not counted, and the count starts over on
// the next cell. A cell is a pure function of the sweep, so kills never
// use up a cell: the run that finally completes prints the
// uninterrupted run's -csv bytes, every row and no partial marker.
func TestChaosRepeatedKillsOnOneCellConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second subprocess harness; skipped with -short")
	}
	rng := chaosRNG(t)
	bin, err := binary()
	if err != nil {
		t.Fatalf("building smbsim: %v", err)
	}
	// About 0.2 s per cell on one worker: room for a kill before the
	// first cell of a run finishes.
	base := []string{"-experiment", "fig5.1", "-slots", "60000", "-seeds", "1", "-workers", "1", "-csv"}
	oracle := finish(t, bin, base)

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	journal := filepath.Join(ckpt, "local.jsonl")
	args := append(base[:len(base):len(base)], "-checkpoint", ckpt)
	for kills, round := 0, 1; kills < 4; round++ {
		if round > 12 {
			t.Fatalf("only %d kills in a row landed on one cell in 12 rounds", kills)
		}
		before := completes(journal)
		delay := time.Duration(20+rng.Intn(60)) * time.Millisecond
		start := time.Now()
		killed := runUntilKilled(t, bin, args, func() bool { return time.Since(start) >= delay })
		if grew := completes(journal) - before; !killed || grew != 0 {
			t.Logf("round %d: killed=%v, %d cells completed first; the next cell starts the count over", round, killed, grew)
			kills = 0
			continue
		}
		kills++
		t.Logf("round %d: killed %v after start, journal unchanged (kill %d on this cell)", round, delay, kills)
	}
	out := finish(t, bin, args)
	if strings.Contains(out, "partial") {
		t.Fatalf("resumed run is partial:\n%s", out)
	}
	if out != oracle {
		t.Fatalf("resumed output differs from the uninterrupted run:\n got:\n%s\nwant:\n%s", out, oracle)
	}
}
