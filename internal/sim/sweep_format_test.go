package sim

// Regression tests for non-finite ratio rendering and series alignment:
// a failed or degenerate cell (OPT throughput 0, or a policy missing
// from a partial point) must surface as "nan"/"inf"/"-inf" and NaN
// placeholders, never as a fabricated 0.000-adjacent number.

import (
	"math"
	"strings"
	"testing"

	"smbm/internal/metrics"
	"smbm/internal/obs"
)

func TestFormatRatioNonFinite(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{1.5, "1.500"},
		{math.NaN(), "nan"},
		{math.Inf(1), "inf"},
		{math.Inf(-1), "-inf"},
	}
	for _, tc := range cases {
		if got := formatRatio(tc.v); got != tc.want {
			t.Errorf("formatRatio(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// formatResult is a hand-built two-point partial result: policy B is
// missing from the second point, and policy A's second point carries a
// non-finite mean.
func formatResult() *SweepResult {
	return &SweepResult{
		Name:     "fmt",
		XLabel:   "x",
		Policies: []string{"A", "B"},
		Points: []PointResult{
			{
				X: 1,
				Ratio: map[string]metrics.Summary{
					"A": {Mean: 1.25, Std: 0.5, N: 2},
					"B": {Mean: 1.5, N: 1},
				},
			},
			{
				X: 2,
				Ratio: map[string]metrics.Summary{
					"A": {Mean: math.Inf(1), N: 2, Std: math.NaN()},
				},
			},
		},
	}
}

// TestSweepTableNonFinite pins the rendering: an infinite mean renders
// as a bare "inf" with no ±std garbage appended, and a finite
// multi-seed mean keeps its ±std suffix.
func TestSweepTableNonFinite(t *testing.T) {
	table := formatResult().Table()
	if !strings.Contains(table, "1.250±0.50") {
		t.Errorf("finite multi-seed cell lost its ±std:\n%s", table)
	}
	if !strings.Contains(table, "inf") {
		t.Errorf("infinite mean not rendered:\n%s", table)
	}
	if strings.Contains(table, "inf±") || strings.Contains(table, "NaN±") {
		t.Errorf("non-finite mean rendered with a ±std suffix:\n%s", table)
	}
}

// TestSweepCSVPlaceholders pins the export side of the same contract:
// the missing policy exports explicit NaN columns.
func TestSweepCSVPlaceholders(t *testing.T) {
	csv := formatResult().CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), csv)
	}
	if lines[0] != "x,A_mean,A_std,B_mean,B_std" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "2,") || !strings.HasSuffix(lines[2], ",NaN,NaN") {
		t.Errorf("missing policy did not export NaN placeholders: %q", lines[2])
	}
}

// TestSweepObsTable pins the decision-counter table: roster order,
// empty when nothing was recorded.
func TestSweepObsTable(t *testing.T) {
	r := formatResult()
	if got := r.ObsTable(); got != "" {
		t.Errorf("ObsTable without counters = %q, want empty", got)
	}
	r.Obs = map[string]obs.KindCounts{
		"B": {Admits: 7, TailDrops: 2, HOLTransmits: 7},
		"A": {Admits: 10, PushOuts: 3, PushedOutWork: 9, PushedOutValue: 3, HOLTransmits: 7},
	}
	table := r.ObsTable()
	ai, bi := strings.Index(table, "A "), strings.Index(table, "B ")
	if ai < 0 || bi < 0 || ai > bi {
		t.Errorf("ObsTable rows not in roster order:\n%s", table)
	}
	for _, want := range []string{"admits", "po-work", "transmits", "10", "9"} {
		if !strings.Contains(table, want) {
			t.Errorf("ObsTable missing %q:\n%s", want, table)
		}
	}
}
