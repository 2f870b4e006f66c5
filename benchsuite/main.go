// Command benchsuite is the repository's end-to-end benchmark. It drives
// the programs under test — cmd/smbsim and cmd/smbsimd, built from the
// same checkout — as subprocesses on four named workloads, checks every
// output for correctness, and prints every metric by name with its
// unit. With -trace 1 it additionally re-runs each workload's code
// in-process with timing wrappers around the public functions of each
// layer and prints the per-layer table; end-to-end numbers always come
// from the untraced subprocess runs.
//
// Usage, from the repository root (run.sh builds everything first):
//
//	bash benchsuite/run.sh                                # all workloads, seed 1
//	bash benchsuite/run.sh -workload daemon-stream -seed 7 -seconds 10
//	bash benchsuite/run.sh -trace 1                       # plus the per-layer table
//	.bench_build/bin/benchsuite compare old.json new.json # regression gate
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every operation of every workload passed its correctness check.
// README.md holds the workload and metric catalogue.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches between the suite and the compare subcommand and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	return runSuite(args, stdout, stderr)
}

// config is one suite invocation's settings, shared by every workload.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	short   bool
	bin     string // directory holding the built smbsim and smbsimd
	workdir string // sockets, results and span files go under here
	golden  map[string]string
}

// workload is one named benchmark input set.
type workload struct {
	name string
	run  func(ctx context.Context, c *config) (*outcome, error)
}

// workloads lists the suite in its fixed order. The names are part of
// BENCHMARK.json and are cited by later changes; do not rename them.
var workloads = []workload{
	{"sweep-proc", sweepProc.run},
	{"sweep-value", sweepValue.run},
	{"daemon-stream", runDaemonStream},
	{"daemon-short", runDaemonShort},
}

// selectWorkloads resolves the -workload flag: "all" or a comma list.
func selectWorkloads(spec string) ([]workload, error) {
	if spec == "all" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(spec, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// suiteResult is the results file one invocation writes: the
// provenance block plus every workload's metrics with their samples.
// compare reads two of these.
type suiteResult struct {
	Provenance provenance                `json:"provenance"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

// workloadResult is one workload's outcome in a results file.
type workloadResult struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// runSuite runs the selected workloads and prints their metrics.
func runSuite(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names    = fs.String("workload", "all", `workload name, a comma list, or "all"`)
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 20, "measuring time per workload, in seconds")
		trace    = fs.Int("trace", 0, "1 adds the traced in-process run and prints per-layer metrics")
		short    = fs.Bool("short", false, "tiny inputs, for the package tests")
		bin      = fs.String("bin", ".bench_build/bin", "directory holding the built smbsim and smbsimd")
		workdir  = fs.String("workdir", ".bench_build", "directory for sockets, results and span files")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark contract naming the metrics to print")
		out      = fs.String("out", "", "results file (default <workdir>/results/<workloads>-seed<S>-trace<T>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchsuite: want flags only, -trace 0 or 1, and -seconds > 0")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 1
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		return fail(err)
	}
	golden, err := loadGolden()
	if err != nil {
		return fail(err)
	}
	for _, tool := range []string{"smbsim", "smbsimd"} {
		if _, err := os.Stat(filepath.Join(*bin, tool)); err != nil {
			return fail(fmt.Errorf("program under test not built: %w", err))
		}
	}
	c := &config{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		short:   *short,
		bin:     *bin,
		workdir: *workdir,
		golden:  golden,
	}
	if *out == "" {
		*out = filepath.Join(c.workdir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", strings.ReplaceAll(*names, ",", "+"), c.seed, *trace))
	}
	for _, dir := range []string{filepath.Dir(*out), filepath.Join(c.workdir, "run")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res := suiteResult{Provenance: newProvenance(c), Workloads: map[string]workloadResult{}}
	for _, w := range selected {
		fmt.Fprintf(stderr, "benchsuite: running %s\n", w.name)
		o, err := w.run(ctx, c)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		res.Workloads[w.name] = o.result()
		printWorkload(stdout, w.name, o, sp, c.trace)
		if c.trace {
			path := filepath.Join(filepath.Dir(*out), "trace-"+w.name+".json")
			if err := o.spans.write(path, w.name, c.seed); err != nil {
				return fail(err)
			}
		}
	}
	res.Provenance.Load1After = loadAvg1()
	fmt.Fprintf(stdout, "# provenance %s\n", res.Provenance.line())
	if err := writeJSON(*out, res); err != nil {
		return fail(err)
	}
	line, ok, err := finalLine(sp, res, selected, c.trace)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// lineMetric is one metric of the final output line.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine renders the last stdout line: the contract's end-to-end
// metrics (or per-layer ones when traced), keyed by name for a single
// workload and by workload/name for several. It fails when a metric the
// contract names was not measured or its unit disagrees.
func finalLine(sp *benchSpec, res suiteResult, selected []workload, trace bool) (string, bool, error) {
	want := sp.EndToEnd
	if trace {
		want = sp.PerLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{Metrics: map[string]lineMetric{}}
	for _, w := range selected {
		wr := res.Workloads[w.name]
		out.Attempted += wr.Attempted
		out.Failed += wr.Failed
		for _, m := range want {
			got, ok := wr.Metrics[m.Name]
			if !ok {
				return "", false, fmt.Errorf("%s: metric %s was not measured", w.name, m.Name)
			}
			if got.Unit != m.Unit {
				return "", false, fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", w.name, m.Name, got.Unit, m.Unit)
			}
			if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				return "", false, fmt.Errorf("%s: metric %s is not finite", w.name, m.Name)
			}
			key := m.Name
			if len(selected) > 1 {
				key = w.name + "/" + m.Name
			}
			out.Metrics[key] = lineMetric{Value: got.Value, Unit: got.Unit}
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	buf, err := json.Marshal(out)
	return string(buf), out.Correct, err
}

// tailLatency is reported with the end-to-end metrics but not gated in
// BENCHMARK.json: only daemon-short has enough operations per run for a
// p99 with samples beyond it; on the other workloads it is the slowest
// of about twenty reps, whose run-to-run spread reaches the largest
// bound the contract allows.
const tailLatency = "latency_p99_ms"

// printWorkload prints one workload's metric table: the end-to-end
// metrics, and with trace the per-layer ones, contract metrics first.
func printWorkload(w io.Writer, name string, o *outcome, sp *benchSpec, trace bool) {
	fmt.Fprintf(w, "== %s: %d operations, %d failed ==\n", name, o.attempted, o.failed)
	for _, msg := range o.failures {
		fmt.Fprintf(w, "   failure: %s\n", msg)
	}
	row := func(mname string) {
		m := o.metrics[mname]
		fmt.Fprintf(w, "   %-36s %14.6g %-6s n=%d\n", mname, m.Value, m.Unit, m.N)
	}
	fmt.Fprintln(w, "-- end to end --")
	for _, m := range sp.EndToEnd {
		if _, ok := o.metrics[m.Name]; ok {
			row(m.Name)
		}
	}
	row(tailLatency)
	if !trace {
		return
	}
	fmt.Fprintln(w, "-- per layer --")
	listed := map[string]bool{tailLatency: true}
	for _, m := range sp.EndToEnd {
		listed[m.Name] = true
	}
	for _, m := range sp.PerLayer {
		listed[m.Name] = true
		if _, ok := o.metrics[m.Name]; ok {
			row(m.Name)
		}
	}
	var extra []string
	for mname := range o.metrics {
		if !listed[mname] {
			extra = append(extra, mname)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		fmt.Fprintln(w, "-- per layer, this workload only --")
	}
	for _, mname := range extra {
		row(mname)
	}
}

// benchSpec is the part of BENCHMARK.json the suite and compare read.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads the benchmark contract.
func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp benchSpec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, errors.New(path + ": no end_to_end or per_layer metrics")
	}
	return &sp, nil
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// childEnv is the environment of every program under test: the
// benchmark's own, with GOMAXPROCS pinned to the CPU count so the
// provenance block can state it.
func childEnv() []string {
	return append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
}
