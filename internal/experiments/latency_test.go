package experiments

import (
	"strings"
	"testing"
)

// TestLatencySweep executes the paper's closing observation: smaller
// buffers sharpen the processing-delay effect. Mean latency must grow
// with B (more queueing headroom) while the ratio falls; and LWD's
// latency advantage over Greedy must be visible at every size. The
// table is identical at every Parallelism.
func TestLatencySweep(t *testing.T) {
	rows, err := Latency(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		o := smallOpts()
		o.Parallelism = par
		other, err := Latency(o)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := LatencyTable(other), LatencyTable(rows); got != want {
			t.Errorf("Parallelism %d table differs from the default's:\n%s\nwant:\n%s", par, got, want)
		}
	}
	if len(rows) != 5*3 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]LatencyRow{}
	for _, r := range rows {
		byKey[r.Policy+"@"+itoa(r.B)] = r
	}
	// Throughput ratio falls (or holds) as B grows, for every policy.
	for _, p := range []string{"LWD", "LQD", "Greedy"} {
		small, large := byKey[p+"@32"], byKey[p+"@512"]
		if large.Ratio > small.Ratio+0.05 {
			t.Errorf("%s: ratio grew with buffer (%.3f -> %.3f)", p, small.Ratio, large.Ratio)
		}
		if large.MeanLatency <= small.MeanLatency {
			t.Errorf("%s: latency did not grow with buffer (%.1f -> %.1f)", p, small.MeanLatency, large.MeanLatency)
		}
	}
	// LWD delivers more than Greedy at a comparable or better delay.
	for _, b := range []string{"32", "512"} {
		lwd, grd := byKey["LWD@"+b], byKey["Greedy@"+b]
		if lwd.Ratio >= grd.Ratio {
			t.Errorf("B=%s: LWD ratio %.3f not ahead of Greedy %.3f", b, lwd.Ratio, grd.Ratio)
		}
	}

	table := LatencyTable(rows)
	for _, want := range []string{"heavy mean lat", "LWD", "512"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
