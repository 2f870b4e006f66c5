package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefusesIgnoredFlag drives the real binary: a flag the chosen
// action ignores exits 1 naming it, with nothing on stdout, and the
// same run without it succeeds.
func TestRefusesIgnoredFlag(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "tracegen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	trace := filepath.Join(dir, "trace.txt")
	if err := os.WriteFile(trace, []byte("# smbm-trace v1 slots=1\n0 0 1 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-in", trace, "-slots", "2", "-ports", "2"}, "-in"},
		{[]string{"-stats", "-in", trace, "-seed", "3"}, "-seed"},
		{[]string{"-replay", "LWD", "-ports", "2", "-in", trace, "-binary"}, "-binary"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, c.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1", c.args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before refusing", c.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), c.flag+" ") {
			t.Errorf("%v: stderr %q does not name %s", c.args, stderr.String(), c.flag)
		}
	}
	if out, err := exec.Command(bin, "-slots", "2", "-ports", "2").Output(); err != nil || len(out) == 0 {
		t.Errorf("generation without ignored flags: err = %v, output %q", err, out)
	}
}
