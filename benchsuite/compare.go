package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// runCompare implements the regression gate:
//
//	benchsuite compare [-spec BENCHMARK.json] OLD NEW
//
// OLD and NEW are results files written by the suite, or comma lists of
// them (several runs of one commit). For every workload and end-to-end
// metric it prints both medians, the change in the metric's bad
// direction, and the run-to-run spread, and calls the metric improved,
// unchanged, unresolved (its spread is wider than its bound, so a
// change that size cannot be told from noise) or a REGRESSION (worse
// by more than its bound, with the spread inside the bound). Per-layer
// metrics, when both sides were traced, are printed as deltas only.
// The exit code is 1 on any regression or failed operation.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark contract holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchsuite compare [-spec BENCHMARK.json] OLD[,OLD...] NEW[,NEW...]")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchsuite compare:", err)
		return 1
	}
	olds, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchsuite compare:", err)
		return 1
	}
	news, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchsuite compare:", err)
		return 1
	}
	bad := 0
	for _, w := range workloads {
		if !hasWorkload(olds, w.name) || !hasWorkload(news, w.name) {
			continue
		}
		fmt.Fprintf(stdout, "== %s ==\n", w.name)
		for _, r := range news {
			if wr := r.Workloads[w.name]; wr.Failed > 0 {
				fmt.Fprintf(stdout, "   FAILED: %d of %d operations failed in the new run\n", wr.Failed, wr.Attempted)
				bad++
			}
		}
		for _, m := range sp.EndToEnd {
			v := judge(m, collect(olds, w.name, m.Name), collect(news, w.name, m.Name))
			if v.verdict == "" {
				continue
			}
			if v.verdict == "REGRESSION" {
				bad++
			}
			fmt.Fprintf(stdout, "   %-24s %12.5g → %-12.5g %-6s worse by %+6.1f%% (bound %4.1f%%, spread %s)  %s\n",
				m.Name, v.old, v.new, m.Unit, 100*v.worse, 100*m.Bound, v.spread, v.verdict)
		}
		for _, m := range sp.PerLayer {
			ov, nv := collect(olds, w.name, m.Name), collect(news, w.name, m.Name)
			if len(ov.values) == 0 || len(nv.values) == 0 {
				continue
			}
			om, nm := median(ov.values), median(nv.values)
			fmt.Fprintf(stdout, "   %-36s %12.5g → %-12.5g %-6s %+6.1f%%\n", m.Name, om, nm, m.Unit, 100*(nm-om)/math.Abs(om))
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regression(s) or failed run(s)\n", bad)
		return 1
	}
	return 0
}

// loadResults reads a comma list of results files.
func loadResults(list string) ([]suiteResult, error) {
	var out []suiteResult
	for _, path := range strings.Split(list, ",") {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r suiteResult
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// hasWorkload reports whether every results file measured the workload.
func hasWorkload(rs []suiteResult, name string) bool {
	for _, r := range rs {
		if _, ok := r.Workloads[name]; !ok {
			return false
		}
	}
	return len(rs) > 0
}

// observed is one metric across the runs of one side: the value of each
// run, and the within-run samples when there is a single run.
type observed struct {
	values  []float64
	samples []float64
}

// collect gathers one metric of one workload from every run.
func collect(rs []suiteResult, workload, name string) observed {
	var ob observed
	for _, r := range rs {
		if m, ok := r.Workloads[workload].Metrics[name]; ok {
			ob.values = append(ob.values, m.Value)
			if len(rs) == 1 {
				ob.samples = m.Samples
			}
		}
	}
	return ob
}

// spreadOf is the run-to-run spread of one side: over the runs when
// there are several, else over the single run's samples; ok is false
// when neither exists.
func (ob observed) spreadOf() (float64, bool) {
	switch {
	case len(ob.values) > 1:
		return spread(ob.values), true
	case len(ob.samples) > 1:
		return spread(ob.samples), true
	}
	return 0, false
}

// points returns the values the all-better test compares.
func (ob observed) points() []float64 {
	if len(ob.values) > 1 {
		return ob.values
	}
	return ob.samples
}

// judgement is one metric's comparison.
type judgement struct {
	old, new, worse float64
	spread, verdict string
}

// judge compares one end-to-end metric against its bound.
func judge(m specMetric, ov, nv observed) judgement {
	if len(ov.values) == 0 || len(nv.values) == 0 {
		return judgement{}
	}
	j := judgement{old: median(ov.values), new: median(nv.values)}
	sign := 1.0 // lower is better: an increase is worse
	if m.Better == "higher" {
		sign = -1
	}
	j.worse = sign * (j.new - j.old) / math.Abs(j.old)
	so, okOld := ov.spreadOf()
	sn, okNew := nv.spreadOf()
	spr := math.Max(so, sn)
	j.spread = fmt.Sprintf("%4.1f%%", 100*spr)
	if !okOld || !okNew {
		j.spread = " n/a"
	}
	allBetter := len(ov.points()) > 0 && len(nv.points()) > 0
	for _, a := range nv.points() {
		for _, b := range ov.points() {
			if sign*(a-b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && j.worse < 0:
		j.verdict = "improved"
	case okOld && okNew && spr > m.Bound:
		j.verdict = "unresolved"
	case j.worse > m.Bound && (!okOld || !okNew):
		j.verdict = "unresolved"
	case j.worse > m.Bound:
		j.verdict = "REGRESSION"
	case j.worse < -m.Bound:
		j.verdict = "improved"
	default:
		j.verdict = "unchanged"
	}
	return j
}
