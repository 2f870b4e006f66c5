package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smbm/internal/traffic"
)

// TestReplayStdinEqualsFile: tracegen resolves -in to a file and hands
// Replay the same reader stdin would be, so a generated trace, text or
// binary, in every mode, replays to byte-identical output from an
// in-memory reader and from the file; and an out-of-order trace is
// refused by both with the same error, naming the line.
func TestReplayStdinEqualsFile(t *testing.T) {
	dir := t.TempDir()
	replayBoth := func(t *testing.T, raw []byte, o ReplayOptions) (fromReader, fromFile string, readerErr, fileErr error) {
		t.Helper()
		path := filepath.Join(dir, "trace")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var a, b bytes.Buffer
		readerErr = Replay(&a, bytes.NewReader(raw), o)
		fileErr = Replay(&b, f, o)
		return a.String(), b.String(), readerErr, fileErr
	}
	for _, mode := range []string{"work", "value", "value-by-port"} {
		for _, binary := range []bool{false, true} {
			var trace bytes.Buffer
			if err := Generate(&trace, GenerateOptions{Slots: 600, Ports: 4, Sources: 20, Mode: mode, Affinity: true, Seed: 7, Binary: binary}); err != nil {
				t.Fatal(err)
			}
			pol := "LWD"
			if mode != "work" {
				pol = "MRD"
			}
			a, b, aerr, berr := replayBoth(t, trace.Bytes(), ReplayOptions{Policy: pol, Ports: 4, Buffer: 16, Flush: 200, Mode: mode})
			if aerr != nil || berr != nil {
				t.Fatalf("%s binary=%v: errors %v / %v", mode, binary, aerr, berr)
			}
			if a != b || !strings.Contains(a, "ratio:") {
				t.Errorf("%s binary=%v: reader output\n%s\nfile output\n%s", mode, binary, a, b)
			}
		}
	}

	outOfOrder := "# smbm-trace v1 slots=3\n2 0 1 1\n0 0 1 1\n"
	a, b, aerr, berr := replayBoth(t, []byte(outOfOrder), ReplayOptions{Policy: "LWD", Ports: 4, Mode: "work"})
	const want = "line 3: slot 0 after slot 2"
	if aerr == nil || berr == nil || aerr.Error() != berr.Error() || !strings.Contains(aerr.Error(), want) {
		t.Errorf("out-of-order trace: errors %v / %v, want both naming %q", aerr, berr, want)
	}
	if a != "" || b != "" {
		t.Errorf("out-of-order trace printed %q / %q", a, b)
	}
}

// TestStreamOnceOpensOnce: the stream provider hands out its one
// cursor, then refuses by name, since a stream cannot be rewound.
func TestStreamOnceOpensOnce(t *testing.T) {
	var trace bytes.Buffer
	if err := Generate(&trace, GenerateOptions{Slots: 10, Ports: 2, Sources: 2, Mode: "work", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	c, slots, err := traffic.StreamAny(&trace)
	if err != nil {
		t.Fatal(err)
	}
	p := &streamOnce{cur: c, slots: slots}
	if p.Slots() != 10 {
		t.Errorf("Slots() = %d, want 10", p.Slots())
	}
	cur, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := p.Open(); err == nil || !strings.Contains(err.Error(), "streamOnce") {
		t.Errorf("second Open: err = %v, want one naming streamOnce", err)
	}
}
