package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"smbm/internal/experiments"
)

// binDir holds the programs under test, built once for the package.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchsuite-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "smbm/cmd/smbsim", "smbm/cmd/smbsimd", "smbm/cmd/tracegen")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building the programs under test:", err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// testConfig is a -short configuration writing under a test directory.
func testConfig(t *testing.T) *config {
	t.Helper()
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := &config{seed: 3, seconds: 0.2, short: true, bin: binDir, workdir: t.TempDir(), golden: golden}
	if err := os.MkdirAll(filepath.Join(c.workdir, "run"), 0o755); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShortSuiteEmitsEveryMetric runs all four workloads at -short
// sizing, traced, and checks that every metric BENCHMARK.json names is
// in the results file with its unit, and that the last stdout line
// carries exactly the per-layer metrics.
func TestShortSuiteEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "results.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-short", "-seconds", "0.2", "-trace", "1", "-seed", "2", "-bin", binDir,
		"-workdir", dir, "-spec", "../BENCHMARK.json", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wr, ok := res[0].Workloads[w.name]
		if !ok {
			t.Fatalf("workload %s missing from the results", w.name)
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, wr.Failed, wr.Attempted, wr.Failures)
		}
		for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
			got, ok := wr.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
				t.Errorf("%s: metric %s = %+v, want a value in %s", w.name, m.Name, got, m.Unit)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct bool                  `json:"correct"`
		Metrics map[string]lineMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if !last.Correct || len(last.Metrics) != len(workloads)*len(sp.PerLayer) {
		t.Errorf("last line: correct=%v with %d metrics, want %d", last.Correct, len(last.Metrics), len(workloads)*len(sp.PerLayer))
	}
}

// TestTruncatedStreamFails cuts a stream mid-record: the daemon aborts
// it at the last complete slot, the response fails the oracle check,
// and a workload holding that failure does not report correct.
func TestTruncatedStreamFails(t *testing.T) {
	c := testConfig(t)
	payload, _, err := genTrace(c.seed, 100)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := replayShards(daemonConfig(), daemonShards, lwd, payload, false, true)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := startDaemon(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if _, err := d.stop(); err != nil {
			t.Error(err)
		}
	}()
	resp, _, err := sendStream(d.sock, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyStream(resp, daemonPolicy, 100, oracle.results); err != nil {
		t.Fatalf("whole stream: %v", err)
	}
	resp, _, err = sendStream(d.sock, payload[:len(payload)-5])
	if err == nil {
		err = verifyStream(resp, daemonPolicy, 100, oracle.results)
	}
	if err == nil {
		t.Fatal("truncated stream passed the oracle check")
	}
	o := newOutcome("daemon-stream", c.seed)
	o.check(1, err)
	assertIncorrect(t, o)
}

// TestWrongGoldenDigestFails runs a sweep against a digest table that
// pins a wrong CSV digest for its size and seed.
func TestWrongGoldenDigestFails(t *testing.T) {
	c := testConfig(t)
	c.golden = map[string]string{
		goldenKey(sweepValue.name, fmt.Sprintf("slots=%d", sweepValue.shortSlots), fmt.Sprintf("seed=%d", c.seed)): strings.Repeat("0", 64),
	}
	o, err := sweepValue.run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != o.attempted {
		t.Errorf("%d of %d cells failed, want all", o.failed, o.attempted)
	}
	assertIncorrect(t, o)
}

// assertIncorrect checks that a failing outcome makes the final line
// report correct=false, which runSuite turns into exit code 1.
func assertIncorrect(t *testing.T, o *outcome) {
	t.Helper()
	if o.failed == 0 {
		t.Fatal("no failure counted")
	}
	sp := &benchSpec{EndToEnd: []specMetric{{Name: "x", Unit: "s"}}}
	o.set("x", "s", 1)
	res := suiteResult{Workloads: map[string]workloadResult{"w": o.result()}}
	line, ok, err := finalLine(sp, res, []workload{{name: "w"}}, false)
	if err != nil || ok || !strings.Contains(line, `"correct":false`) {
		t.Fatalf("final line %s ok=%v err=%v, want correct=false", line, ok, err)
	}
}

// TestTracedSweepCSVMatchesSmbsim checks the traced in-process panel
// renders the same bytes as smbsim.
func TestTracedSweepCSVMatchesSmbsim(t *testing.T) {
	const slots, seed = 200, 5
	for _, w := range []sweepWorkload{sweepProc, sweepValue} {
		r, err := runChild(context.Background(), filepath.Join(binDir, "smbsim"), w.args(slots, sweepSeeds, sweepWorkers, seed))
		if err != nil {
			t.Fatal(err)
		}
		opts := experiments.Options{Slots: slots, Seeds: sweepSeeds, BaseSeed: seed, Parallelism: sweepWorkers}
		tr := newSweepTracer(newSpanLog("test"))
		csv, _, err := panelCSV(context.Background(), w.panel, opts, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csv, r.stdout) {
			t.Errorf("%s: traced CSV differs from smbsim's:\n%s\nvs\n%s", w.name, csv, r.stdout)
		}
		if len(tr.cells) != 2*len(strings.Split(strings.TrimSpace(string(csv)), "\n"))-4 {
			t.Errorf("%s: %d traced cells", w.name, len(tr.cells))
		}
	}
}

// TestTraceBytesMatchTracegen pins the daemon trace to tracegen's
// binary output for the same seed.
func TestTraceBytesMatchTracegen(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		const slots = 500
		want, err := exec.Command(filepath.Join(binDir, "tracegen"), "-binary", "-ports", "16",
			"-slots", fmt.Sprint(slots), "-seed", fmt.Sprint(seed)).Output()
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := genTrace(seed, slots)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d: %d generated bytes differ from tracegen's %d", seed, len(got), len(want))
		}
	}
}

// TestQuartilesMatchPython pins the spread rule's quartile method to
// Python's statistics.quantiles(n=4) (method "exclusive").
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestJudge pins the compare verdicts.
func TestJudge(t *testing.T) {
	lower := specMetric{Name: "latency", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "throughput", Better: "higher", Bound: 0.1}
	runs := func(xs ...float64) observed { return observed{values: xs} }
	for _, tc := range []struct {
		m        specMetric
		old, new observed
		want     string
	}{
		{lower, runs(100, 101, 99, 100), runs(100, 102, 99, 101), "unchanged"},
		{lower, runs(100, 101, 99, 100), runs(130, 131, 129, 130), "REGRESSION"},
		{higher, runs(100, 101, 99, 100), runs(80, 81, 79, 80), "REGRESSION"},
		{higher, runs(100, 101, 99, 100), runs(130, 131, 129, 130), "improved"},
		{lower, runs(100, 160, 60, 100), runs(120, 180, 70, 125), "unresolved"},
		{lower, observed{values: []float64{100}}, observed{values: []float64{150}}, "unresolved"},
		{lower, observed{values: []float64{100}, samples: []float64{99, 100, 101}}, observed{values: []float64{150}, samples: []float64{149, 150, 151}}, "REGRESSION"},
	} {
		if got := judge(tc.m, tc.old, tc.new).verdict; got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.m.Name, tc.old, tc.new, got, tc.want)
		}
	}
}
