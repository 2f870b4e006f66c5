package experiments

import (
	"strings"
	"testing"
)

// TestArchitectures reproduces the paper's introductory narrative
// quantitatively: single-queue PQ maximizes throughput but starves the
// most expensive class; the shared-memory switch under LWD trades a
// bounded amount of throughput for bounded per-class latency; greedy
// FIFO single queue is far behind both.
// Every system steps through one stream, so the table is identical
// at every Parallelism.
func TestArchitectures(t *testing.T) {
	rows, err := Architectures(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		o := smallOpts()
		o.Parallelism = par
		other, err := Architectures(o)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ArchTable(other), ArchTable(rows); got != want {
			t.Errorf("Parallelism %d table differs from the default's:\n%s\nwant:\n%s", par, got, want)
		}
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]ArchRow{}
	for _, r := range rows {
		byName[r.System] = r
	}
	pq := byName["1Q-PQ-pushout"]
	lwd := byName["SM-LWD"]
	greedy := byName["1Q-FIFO-greedy"]
	smGreedy := byName["SM-Greedy"]

	if pq.Ratio != 1.0 {
		t.Errorf("single-queue PQ is not the throughput winner: %+v", pq)
	}
	if lwd.Ratio > 1.5 {
		t.Errorf("LWD not within 1.5x of single-queue PQ: %+v", lwd)
	}
	if !(lwd.Ratio < greedy.Ratio) {
		t.Errorf("LWD (%v) not ahead of greedy single queue (%v)", lwd.Ratio, greedy.Ratio)
	}
	if !(lwd.Ratio < smGreedy.Ratio) {
		t.Errorf("LWD (%v) not ahead of greedy shared memory (%v)", lwd.Ratio, smGreedy.Ratio)
	}
	// Starvation: PQ delivers almost none of the heaviest class during
	// congestion; LWD delivers a solid share.
	if pq.HeavyDelivery > 0.10 {
		t.Errorf("single-queue PQ heavy delivery %.3f, expected starvation", pq.HeavyDelivery)
	}
	if lwd.HeavyDelivery < 2*pq.HeavyDelivery+0.05 {
		t.Errorf("LWD heavy delivery %.3f does not beat PQ's %.3f", lwd.HeavyDelivery, pq.HeavyDelivery)
	}
}

func TestArchTable(t *testing.T) {
	rows, err := Architectures(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	table := ArchTable(rows)
	for _, want := range []string{"1Q-PQ-pushout", "SM-LWD", "heavy delivery"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}
