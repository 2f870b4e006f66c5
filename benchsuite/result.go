package main

import (
	"bufio"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one measured value with the samples behind it. Samples are
// per-rep or per-operation values; compare uses them for the spread.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// maxFailureNotes caps the failure messages kept per workload.
const maxFailureNotes = 8

// outcome accumulates one workload's operations, failures, metrics and
// spans.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	spans             *spanLog
}

// newOutcome starts an outcome whose spans share the trace id
// "<workload>-<seed>".
func newOutcome(name string, seed int64) *outcome {
	return &outcome{metrics: map[string]metric{}, spans: newSpanLog(fmt.Sprintf("%s-%d", name, seed))}
}

// check counts n attempted operations, all failed when err is non-nil.
func (o *outcome) check(n int, err error) {
	o.attempted += n
	if err == nil {
		return
	}
	o.failed += n
	if len(o.failures) < maxFailureNotes {
		o.failures = append(o.failures, err.Error())
	}
}

// set records a metric measured once.
func (o *outcome) set(name, unit string, v float64) {
	o.metrics[name] = metric{Value: v, Unit: unit, N: 1}
}

// setMedian records the median of per-rep samples (reps, windows or
// launches), keeping them for compare's spread.
func (o *outcome) setMedian(name, unit string, samples []float64) {
	o.metrics[name] = metric{Value: median(samples), Unit: unit, N: len(samples), Samples: samples}
}

// setQuantile records the q-quantile of samples without keeping them:
// per-operation samples would bloat the results file and are not a
// spread of reps.
func (o *outcome) setQuantile(name, unit string, samples []float64, q float64) {
	o.metrics[name] = metric{Value: quantile(samples, q), Unit: unit, N: len(samples)}
}

// result converts the outcome for the results file.
func (o *outcome) result() workloadResult {
	return workloadResult{Attempted: o.attempted, Failed: o.failed, Failures: o.failures, Metrics: o.metrics}
}

// median returns the middle value (mean of the two middle values for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile, or NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// quartiles returns the first and third quartiles with the "exclusive"
// method of Python's statistics.quantiles(n=4), the method the spread
// rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// sorted returns a sorted copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// provenance records where and how a result was measured.
type provenance struct {
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	ChildGOMAXPROCS int     `json:"child_gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	GOOS            string  `json:"goos"`
	GOARCH          string  `json:"goarch"`
	CPU             string  `json:"cpu"`
	Kernel          string  `json:"kernel"`
	GitHead         string  `json:"git_head"`
	Seed            int64   `json:"seed"`
	Seconds         float64 `json:"seconds"`
	Trace           bool    `json:"trace"`
	Short           bool    `json:"short"`
	Started         string  `json:"started"`
	Load1Before     float64 `json:"load1_before"`
	Load1After      float64 `json:"load1_after"`
}

// newProvenance captures the machine and settings before the run.
func newProvenance(c *config) provenance {
	return provenance{
		NProc:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		ChildGOMAXPROCS: runtime.NumCPU(),
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		CPU:             cpuModel(),
		Kernel:          strings.TrimSpace(readFirstLine("/proc/sys/kernel/osrelease")),
		GitHead:         gitHead(),
		Seed:            c.seed,
		Seconds:         c.seconds,
		Trace:           c.trace,
		Short:           c.short,
		Started:         time.Now().UTC().Format(time.RFC3339),
		Load1Before:     loadAvg1(),
	}
}

// line renders the provenance as one JSON line.
func (p provenance) line() string {
	buf, _ := json.Marshal(p) // a struct of plain fields always marshals
	return string(buf)
}

// gitHead returns the commit of the git work tree rooted at the working
// directory, or "unknown" when the checkout is not one.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, werr := os.Getwd()
	top, head, ok := strings.Cut(strings.TrimSpace(string(out)), "\n")
	if err != nil || werr != nil || !ok || top != wd {
		return "unknown"
	}
	return head
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// loadAvg1 returns the 1-minute load average, or -1 when unreadable.
func loadAvg1() float64 {
	fields := strings.Fields(readFirstLine("/proc/loadavg"))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// readFirstLine returns a file's first line, or "" when unreadable.
func readFirstLine(path string) string {
	buf, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	return line
}

// goldenFS holds the committed sweep CSV digests.
//
//go:embed testdata/golden/sha256.txt
var goldenFS embed.FS

// loadGolden parses the digest table: one "<workload> slots=<n>
// seed=<s> <sha256>" line per pinned sweep output.
func loadGolden() (map[string]string, error) {
	buf, err := goldenFS.ReadFile("testdata/golden/sha256.txt")
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(buf), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 4 {
			return nil, fmt.Errorf("golden digests: malformed line %q", line)
		}
		out[goldenKey(f[0], f[1], f[2])] = f[3]
	}
	return out, nil
}

// goldenKey names one pinned sweep output.
func goldenKey(workload, slots, seed string) string {
	return workload + " " + slots + " " + seed
}
