// Package report generates EXPERIMENTS.md: it runs the full evaluation
// (lower-bound constructions, the nine Fig. 5 panels, the architecture
// comparison) and interleaves the measured tables with the paper-vs-
// measured analysis. Regenerate with:
//
//	go run ./cmd/report > EXPERIMENTS.md
package report

import (
	"fmt"
	"io"

	"smbm/internal/adversary"
	"smbm/internal/experiments"
)

// analyses holds the per-panel paper-vs-measured commentary, keyed by
// panel id. The wording states what the paper claims and what the tables
// below it show; the claims themselves are enforced by tests in
// internal/experiments, so the text cannot silently rot.
var analyses = map[string]string{
	"fig5.1": `Paper: "performance of all algorithms decreases as k grows, but
non-preemptive algorithms clearly deteriorate faster. BPD turns out to be
a very poor heuristic ... BPD1 does better but remains a poor fit" and
LWD is the best policy.
Measured: every column grows with k; LWD is lowest at every k; BPD is the
worst push-out policy by a wide margin with BPD1 between BPD and the
rest; the greedy tail-drop baseline deteriorates fastest. **Shape
reproduced** (enforced by TestPanel1Shape).`,
	"fig5.2": `Paper: "non-preemptive algorithms become worse at first but then
come back when OPT stops improving. Preemptive algorithms do better ...
with BPD and BPD1 outperforming non-preemptive algorithms as congestion
reduces, and LWD retains best throughout."
Measured: LWD lowest in every row; BPD/BPD1 are the worst policies at
small B but cross below NEST/NHDT by B=1024-2048 as congestion
dissolves. **Shape reproduced, including the BPD crossover** (enforced by
TestPanel2BPDRecovery).`,
	"fig5.3": `Paper: "preemptive algorithms pick up on this advantage quicker
than non-preemptive ones, and again, LWD is the best algorithm."
Measured: all ratios fall with C; LQD/LWD drop fastest and LWD is lowest
everywhere. **Shape reproduced.**`,
	"fig5.4": `Paper: growing k relieves congestion: "at first the optimal
algorithm can make better use of it, but then congestion reduces and
suboptimal algorithms catch up"; "MRD outperforms all other algorithms,
but the difference with LQD is rather small. Both MVD and MVD1 trail
relatively far behind."
Measured: there is no hump at 4,000 slots. The non-preemptive columns
rise monotonically in k (Greedy 1.43 to 5.69, NEST 1.34 to 3.33, NHDT
1.34 to 2.96), so the catch-up the paper describes does not appear in
the measured range. MRD <= LQD at every k and MVD/MVD1 trail.
**Partially reproduced:** the ordering holds, the hump does not.`,
	"fig5.5": `Paper: larger buffers relieve congestion; MRD stays best, MVD
trails.
Measured: all ratios monotonically fall with B; MRD <= LQD in every row;
MVD/MVD1 trail throughout. **Shape reproduced.**`,
	"fig5.6": `Paper: "as speedup grows, MVD begins to outperform both LQD and
MRD. This is caused by situations when a burst can be processed almost
entirely in a single time slot (due to large speedup) but cannot fit in
the buffer size (due to high intensity λ)".
Measured: at C=1 LQD/MRD beat MVD; from C=4 the order flips. **Crossover
reproduced** under the megaburst traffic profile (enforced by
TestPanel6MVDCrossover).`,
	"fig5.7": `Paper: "In this special case, MRD performs noticeably better than
LQD ... MRD is never explicitly worse than LQD, and its advantage grows
for distributions that prioritize certain values at specific queues.
Again, preemptive algorithms outperform non-preemptive ones, with the
exception of MVD, even in its enhanced MVD1 version."
Measured: MRD beats LQD at every k with a growing gap; MVD/MVD1 are the
worst policies, worse than every non-preemptive one. **Shape
reproduced** (enforced by TestPanel7Shape).`,
	"fig5.8": `Paper: same ordering against B.
Measured: MRD <= LQD in every row; MVD/MVD1 worst throughout;
non-preemptive policies in between. **Shape reproduced.**`,
	"fig5.9": `Paper: speedup panel of the value≡port case; MVD catches up at
high speedup, MRD best overall.
Measured: MRD lowest in every row; MVD crosses below LQD at high C;
static thresholds collapse under megabursts. **Shape reproduced.**`,
}

// theoremRows summarizes the lower-bound verdicts; the tolerances are
// asserted by internal/adversary's tests.
const theoremVerdicts = `| Exp | Paper claims | Measured vs predicted | Verdict |
|---|---|---|---|
| Thm 1 | NHST >= kZ | measured = exact prediction B/ceil(B/kZ) | reproduced |
| Thm 2 | NEST >= n | exact | exact |
| Thm 3 | NHDT >= (1/2)sqrt(k ln k) | tracks the proof's finite-B formula | reproduced |
| Thm 4 | LQD >= sqrt(k) - o(sqrt(k)) | tracks the proof's finite-k formula; growth with k verified | reproduced |
| Thm 5 | BPD >= ln k + gamma = H_k | exact across k | exact |
| Thm 6 | LWD >= 4/3 - 6/B | exact | exact |
| Thm 9 | value-LQD >= cbrt(k) | within 5% of the proof's accounting | reproduced |
| Thm 10 | MVD >= (m-1)/2 | exact per-slot accounting (m+1)/2 | reproduced |
| Thm 11 | MRD >= 4/3 (value≡port) | exact | exact |
`

// header opens the document.
const header = `# EXPERIMENTS — paper vs. measured

This file is generated: ` + "`go run ./cmd/report > EXPERIMENTS.md`" + `.

Every evaluation artifact of the paper (the nine panels of Fig. 5 and the
lower-bound theorems) against what this reproduction measures. The
paper's graph captions — and therefore its exact traffic parameters — are
not part of the available text, so absolute ratios are not comparable;
the reproduction target is the *shape*: which policy wins, how curves
grow, where crossovers sit. Every "shape reproduced" claim below is also
enforced by a test named next to it, so this document cannot drift from
the code.

Regenerate pieces interactively with:

` + "```" + `
go run ./cmd/smbsim                 # Fig. 5 panels (add -scale paper for the paper-scale preset)
go run ./cmd/smbsim -experiment arch
go run ./cmd/lowerbound             # theorem table
go run ./cmd/conjecture             # open-problem hunts
go test -bench=. -benchmem ./...    # benchmark harness (ratios as custom metrics)
` + "```" + `

## Methodology notes

- **OPT reference.** As in the paper, OPT is approximated by a single
  priority queue over the whole buffer with n·C cores
  (smallest-work-first / largest-value-first). The paper notes this proxy
  "may perform even better than optimal in our model" under congestion.
  Our exact-optimum solver shows the proxy is *not* a strict upper bound
  on shared-memory OPT — see TestSPQProxyIsNotAStrictUpperBound for a
  9-packet counterexample. Every ratio below is taken against the SPQ
  proxy, and whether the proxy dominates shared-memory OPT on Fig. 5
  traffic is not measured.
- **Lower-bound constructions** use the proofs' scripted clairvoyant OPT
  strategies (static per-port thresholds) rather than the SPQ proxy, so
  the measured ratio is exactly the quantity each proof accounts. Each
  construction warms both systems into steady state and measures whole
  rounds, mirroring the proofs' "the process repeats" accounting.
- **Theorem 7 (LWD <= 2)** is an upper bound, hence not a construction:
  it is validated three ways — as an executable invariant
  (TestQuickLWDTwoCompetitive: 2·LWD >= ExactOPT over exhaustive tiny
  instances), by a randomized falsification hunt (cmd/conjecture), and by
  executing the proof's own Fig. 3 mapping routine live
  (internal/mapcheck). The routine as literally written violates its
  Lemma 8 latency claim in a push-out corner (minimal witness in
  TestLiteralRoutineGap); a conditionally-upgrading repair maintains the
  invariant on every tested instance. DESIGN.md §6 has the full story.
- **Paper-scale recipe.** The full-size evaluation is one flag:

  ` + "```" + `
  go run ./cmd/smbsim -scale paper -workers 8 -checkpoint paper.ckpt
  ` + "```" + `

  -scale paper selects the 2·10^6-slot, 500-source preset
  (experiments.PaperScale); explicit -slots/-seeds/-sources flags still
  override individual fields. Arrivals stream from seeded MMPP cursors
  instead of materialized traces, so per-worker trace memory is O(1) in
  the slot count — an open cursor retains a few KB after 10^5 slots
  (bounded by internal/traffic TestMMPPProviderStreamedMemoryBound),
  where the materialized trace holds about 1.4 KB per slot — and the
  same seeds reproduce the same ratios bit-for-bit at any -workers setting (enforced by
  internal/sim/stream_differential_test.go). DESIGN.md §10 documents
  the Provider contract.
- **Checkpointed resume.** Paper-scale sweeps (-scale paper -seeds 5)
  run for hours; smbsim -checkpoint run.ckpt journals every completed
  (x, seed) sweep cell to run.ckpt/local.jsonl (fsynced,
  torn-tail-tolerant append-only lines), and a re-run with the same
  flag skips those cells and runs every other cell once. A Ctrl-C
  prints the completed points as a partial table and exits with code
  2; it and a kill -9 both cost only the in-flight cells, and the
  resumed tables are bit-identical to an uninterrupted run — the chaos
  harness (make chaos) asserts exactly that under seeded kills and torn
  journals. A cell that fails is reported and the run exits 1; the
  remaining tables still render, and the next resume runs that cell
  again. A run that exits 0 has printed every cell. The journal is
  keyed by sweep name, so one directory serves a whole multi-panel
  run. The journal carries a fingerprint of each sweep's
  configuration (swept values, seeds, base seed, fixed parameters,
  policy roster): resuming after a flag change fails loudly
  naming the changed field, so cells computed under different
  configurations can never merge into one table. DESIGN.md §13 has the
  record grammar and crash matrix.
- **Observability recipes** (DESIGN.md §12). Decision counters explain
  *why* a policy's ratio moved — which ports it starved, how much work
  its push-outs discarded:

  ` + "```" + `
  go run ./cmd/smbsim -experiment fig5.1 -obs           # counters per report
  go run ./cmd/smbsim -experiment fig5.3 -obs \
      -trace-events 64 -trace-out events.txt            # + last-64-events dump
  go run ./cmd/smbsim -scale paper -checkpoint paper.ckpt \
      -pprof localhost:6060                             # watch a long run:
  curl -s localhost:6060/debug/vars | grep smbsim.progress
  make obs-demo                                         # all of it, small
  go test -run SteadyStateZeroAllocs ./internal/sim     # overhead gate: 0 allocs/op
  ` + "```" + `

  Counters are recorded branch-on-nil in the engine, so runs without
  -obs pay one pointer compare per decision and remain allocation-free
  (asserted for the 18 roster policies and the 2 OPT proxies by
  TestSteadyStateZeroAllocs).
  The OPT proxy is not instrumented: counters describe the policies
  under study.

`

// Generate runs the evaluation and writes the document to w.
func Generate(w io.Writer, o experiments.Options) error {
	if err := lowerBoundSection(w); err != nil {
		return err
	}
	for _, id := range experiments.PanelIDs() {
		if err := panelSection(w, id, o); err != nil {
			return err
		}
	}
	if err := archSection(w, o); err != nil {
		return err
	}
	if err := latencySection(w, o); err != nil {
		return err
	}
	_, err := io.WriteString(w, benchSection)
	return err
}

// latencySection runs and writes the delay/throughput trade-off sweep.
func latencySection(w io.Writer, o experiments.Options) error {
	rows, err := experiments.Latency(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, `## Latency trade-off (cmd/smbsim -experiment latency)

The paper closes on the observation that "as buffers get smaller, the
effect of processing delay becomes much more pronounced". The sweep
below shows the delay/throughput trade-off the admission policies
navigate: LWD delivers several times Greedy's throughput at a fraction
of its latency, at every buffer size (enforced by TestLatencySweep):

`+"```\n%s```\n\n", experiments.LatencyTable(rows))
	return err
}

// lowerBoundSection writes the header and the theorem table.
func lowerBoundSection(w io.Writer) error {
	if _, err := io.WriteString(w, header); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "## Lower-bound theorems (cmd/lowerbound)\n\n"+
		"\"measured\" is scripted-OPT / policy at default parameters; \"predicted\" is\n"+
		"the proof's own finite-parameter accounting; the asymptotic column is the\n"+
		"bound as stated in the paper, evaluated at these parameters.\n\n```\n"); err != nil {
		return err
	}
	all, err := adversary.All()
	if err != nil {
		return err
	}
	table, err := adversary.Table(all)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, table); err != nil {
		return err
	}
	_, err = io.WriteString(w, "```\n\n"+theoremVerdicts+"\n")
	return err
}

// panelSection runs one Fig. 5 panel and writes its table + analysis.
func panelSection(w io.Writer, id string, o experiments.Options) error {
	sweep, err := experiments.Panel(id, o)
	if err != nil {
		return err
	}
	result, err := sweep.Run()
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "### %s — competitive ratio vs %s\n\n%s\n\n```\n%s```\n\n",
		id, result.XLabel, analyses[id], result.Table()); err != nil {
		return err
	}
	return nil
}

// archSection runs and writes the architecture comparison.
func archSection(w io.Writer, o experiments.Options) error {
	rows, err := experiments.Architectures(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, `## Architecture comparison (Fig. 1, cmd/smbsim -experiment arch)

The paper's introduction motivates the shared-memory switch against the
single-queue architecture: a single priority queue with push-out is
throughput-optimal but starves expensive classes and needs priority-order
hardware; per-type FIFO queues under LWD stay close in throughput with
bounded per-class latency. Same MMPP traffic, same total buffer and core
budget (enforced by TestArchitectures):

`+"```\n%s```\n\n", experiments.ArchTable(rows))
	return err
}

// benchSection closes the document.
const benchSection = `## Benchmarks

` + "`bench_test.go`" + ` provides one benchmark per panel and per theorem; each
reports the measured ratio as a custom metric alongside ns/op and
allocations. Package-level micro-benchmarks cover the substrates and the
ablations DESIGN.md calls out:

- ` + "`internal/bmset`" + `: the bitmap bounded multiset (BenchmarkSetK64/K1024)
  vs the naive O(k) bucket scan it replaces, at k=64 and k=1024.
- ` + "`internal/core`" + `: BenchmarkInvariantCheckingOverhead (the
  CheckInvariants flag) vs the plain step loop.
- ` + "`internal/experiments`" + `: BenchmarkAblationLWDTieBreak — LWD with
  largest-work vs smallest-work tie-breaking; the accompanying test
  asserts the choice moves the empirical ratio by < 5%. The TVD ablation
  (TestAblationTVDVsMRD) executes the paper's "total value per queue is a
  poor choice" argument; the NHDTW probe (TestNHDTWOnTheorem3Construction)
  records a negative result on the paper's NHDT-generalization question.
- ` + "`internal/policy`" + `: per-packet admission cost of every policy's
  batch kernel (ns/pkt) in every model on a congested 64-port switch.
`
