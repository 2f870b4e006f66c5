package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// binary builds the smbsim binary once per test run and returns its
// path; the SIGINT tests drive the real executable because signal
// delivery, exit codes and stderr messaging are process-level behavior
// no in-process test can see.
var binary = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "smbsim-e2e-")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "smbsim")
	cmd := exec.Command("go", "build", "-o", path, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", &buildError{out: out, err: err}
	}
	return path, nil
})

// buildError carries the compiler output of a failed test-binary build.
type buildError struct {
	out []byte
	err error
}

func (e *buildError) Error() string { return e.err.Error() + "\n" + string(e.out) }

// sweepArgs is the shared shape of the interrupted and oracle runs:
// big enough (~0.3s per cell, 14 cells) that SIGINT reliably lands
// mid-sweep, small enough to keep the test under a few seconds.
func sweepArgs(extra ...string) []string {
	args := []string{"-experiment", "fig5.1", "-slots", "15000", "-seeds", "2", "-workers", "2", "-csv"}
	return append(args, extra...)
}

// waitForCellRecord polls a checkpoint journal until it holds a
// complete record, so the SIGINT lands after some work is durably
// journaled but before the sweep finishes.
func waitForCellRecord(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		raw, err := os.ReadFile(path)
		if err == nil && bytes.Contains(raw, []byte(`"kind":"complete"`)) {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("no complete cell record appeared in %s within the deadline", path)
}

// TestSIGINTPartialThenResumeBitIdentical covers the graceful-interrupt
// contract end to end: a checkpointed run killed with SIGINT mid-sweep
// must exit with code 2 and announce partial results and the resume
// path on stderr; a second run on the same checkpoint must complete —
// running the cells the interrupted run did not journal — and print
// output bit-identical to an uninterrupted run.
func TestSIGINTPartialThenResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second subprocess test; skipped with -short")
	}
	bin, err := binary()
	if err != nil {
		t.Fatalf("building smbsim: %v", err)
	}

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")

	// The oracle: the same sweep, uninterrupted, no journal.
	var oracleOut bytes.Buffer
	oracle := exec.Command(bin, sweepArgs()...)
	oracle.Stdout = &oracleOut
	oracle.Stderr = os.Stderr
	if err := oracle.Run(); err != nil {
		t.Fatalf("oracle run: %v", err)
	}

	// Interrupted run: SIGINT after the first cell record lands.
	var out, errOut bytes.Buffer
	interrupted := exec.Command(bin, sweepArgs("-checkpoint", ckpt)...)
	interrupted.Stdout = &out
	interrupted.Stderr = &errOut
	if err := interrupted.Start(); err != nil {
		t.Fatalf("starting interrupted run: %v", err)
	}
	waitForCellRecord(t, filepath.Join(ckpt, "local.jsonl"))
	if err := interrupted.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("sending SIGINT: %v", err)
	}
	err = interrupted.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("interrupted run: want *exec.ExitError, got %v\nstderr: %s", err, errOut.String())
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("interrupted run exited %d, want 2\nstderr: %s", code, errOut.String())
	}
	if s := errOut.String(); !strings.Contains(s, "interrupted; partial results printed above") {
		t.Fatalf("stderr missing the partial-results notice:\n%s", s)
	}
	if s := errOut.String(); !strings.Contains(s, "-checkpoint "+ckpt) {
		t.Fatalf("stderr missing the resume hint:\n%s", s)
	}

	// Resume: same flags, same checkpoint — must finish clean and match
	// the oracle byte for byte.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var resumeOut bytes.Buffer
	resume := exec.CommandContext(ctx, bin, sweepArgs("-checkpoint", ckpt)...)
	resume.Stdout = &resumeOut
	resume.Stderr = os.Stderr
	if err := resume.Run(); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if resumeOut.String() != oracleOut.String() {
		t.Fatalf("resumed output differs from uninterrupted oracle:\n got:\n%s\nwant:\n%s", resumeOut.String(), oracleOut.String())
	}
}

// smbsimFails runs smbsim with args, asserting it exits 1 with a
// stderr message containing every one of wants.
func smbsimFails(t *testing.T, args []string, wants ...string) {
	t.Helper()
	bin, err := binary()
	if err != nil {
		t.Fatalf("building smbsim: %v", err)
	}
	var errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &errOut
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("smbsim %v: want exit 1, got %v\nstderr: %s", args, err, errOut.String())
	}
	for _, want := range wants {
		if !strings.Contains(errOut.String(), want) {
			t.Fatalf("smbsim %v: stderr missing %q:\n%s", args, want, errOut.String())
		}
	}
}

// TestTraceOutNeedsTraceEvents pins that -trace-out without
// -trace-events, which would write nothing, is refused with an error
// naming both flags, and that no file is created.
func TestTraceOutNeedsTraceEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	smbsimFails(t, sweepArgs("-trace-out", path), "-trace-out needs -trace-events")
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("refused run touched %s: %v", path, err)
	}
}

// TestRefusesIgnoredScaleFlags pins the command line's set-flag checks:
// -spec refuses a scale flag its spec overrides, and arch refuses
// -seeds, which it ignores, each naming the flag.
func TestRefusesIgnoredScaleFlags(t *testing.T) {
	spec := filepath.Join("..", "..", "examples", "specs", "custom.json")
	smbsimFails(t, []string{"-spec", spec, "-csv", "-slots", "50"}, "-slots does not apply to -spec")
	smbsimFails(t, []string{"-spec", spec, "-scale", "paper"}, "-scale does not apply to -spec")
	smbsimFails(t, []string{"-experiment", "arch", "-seeds", "1"}, "-seeds does not apply to -experiment arch")
}

// TestCheckpointRefusesPreLedgerJournal pins the no-upgrade contract: a
// -checkpoint path holding a regular file is a journal from a build
// before -checkpoint became a journal directory, and smbsim refuses it
// with a message saying how to proceed instead of touching it.
func TestCheckpointRefusesPreLedgerJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	old := `{"sweep":"fig5.1","header_v":1,"x_label":"k","xs_hash":"0","seeds":2,"base_seed":1}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	smbsimFails(t, sweepArgs("-checkpoint", path), "pre-ledger checkpoint journal", "previous build", "move it aside")
	if raw, err := os.ReadFile(path); err != nil || string(raw) != old {
		t.Fatalf("refused journal was modified: %q, %v", raw, err)
	}
}

// TestFlagErrorsExitOne pins flag parsing's exit codes against the real
// binary: an unknown flag or a malformed value exits 1, since 2 means
// "interrupted, resumable via -checkpoint", and -h prints the usage and
// exits 0.
func TestFlagErrorsExitOne(t *testing.T) {
	smbsimFails(t, []string{"-bogus"}, "flag provided but not defined: -bogus")
	smbsimFails(t, []string{"-slots", "abc"}, `invalid value "abc" for flag -slots`)
	bin, err := binary()
	if err != nil {
		t.Fatalf("building smbsim: %v", err)
	}
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, "-h")
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("smbsim -h: %v, want exit 0\nstderr: %s", err, errOut.String())
	}
	if out.Len() != 0 || !strings.Contains(errOut.String(), "-checkpoint DIR") {
		t.Fatalf("smbsim -h: stdout %q, stderr lacks the usage:\n%s", out.String(), errOut.String())
	}
}
