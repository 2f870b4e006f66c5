// Streaming-pipeline differential tests: every Provider shape — seeded
// MMPP regeneration, file-backed text and binary streaming, and the
// materialized-trace adapter — must drive an Instance to bit-identical
// results; and the parallel replay fan-out must reproduce the
// sequential order exactly. Together these pin that streamed runs
// reproduce materialized runs' Stats and per-port counters on fixed
// seeds.
package sim_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"smbm/internal/core"
	"smbm/internal/policy"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// streamCell is one differential configuration: a switch config, its
// MMPP spec, and the roster to race.
type streamCell struct {
	name     string
	cfg      core.Config
	mcfg     traffic.MMPPConfig
	policies []core.Policy
}

// streamCells builds the processing- and value-model cells at one
// seed.
func streamCells(seed int64) []streamCell {
	procCfg := core.Config{
		Model:    core.ModelProcessing,
		Ports:    4,
		Buffer:   12,
		MaxLabel: 4,
		Speedup:  2,
		PortWork: core.ContiguousWorks(4),
	}
	valCfg := core.Config{
		Model:    core.ModelValue,
		Ports:    4,
		Buffer:   12,
		MaxLabel: 6,
		Speedup:  1,
	}
	return []streamCell{
		{
			name: "processing",
			cfg:  procCfg,
			mcfg: traffic.MMPPConfig{
				Sources:      40,
				LambdaOn:     0.35,
				POnOff:       0.2,
				POffOn:       0.3,
				Label:        traffic.LabelWorkByPort,
				Ports:        procCfg.Ports,
				MaxLabel:     procCfg.MaxLabel,
				PortWork:     procCfg.PortWork,
				PortAffinity: true,
				Seed:         seed,
			},
			policies: []core.Policy{policy.LWD{}, policy.LQD{}, policy.Greedy{}, policy.NHDT{}},
		},
		{
			name: "value",
			cfg:  valCfg,
			mcfg: traffic.MMPPConfig{
				Sources:      40,
				LambdaOn:     0.35,
				POnOff:       0.2,
				POffOn:       0.3,
				Label:        traffic.LabelValueUniform,
				Ports:        valCfg.Ports,
				MaxLabel:     valCfg.MaxLabel,
				PortAffinity: true,
				Seed:         seed,
			},
			policies: []core.Policy{policy.MRD{}, policy.MVD{}, policy.VLQD{}},
		},
	}
}

// writeTraceFile materializes tr into a temp file in the given format
// and returns its path.
func writeTraceFile(t *testing.T, tr traffic.Trace, binary bool) string {
	t.Helper()
	name := "trace.txt"
	if binary {
		name = "trace.bin"
	}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if binary {
		err = tr.WriteBinary(f)
	} else {
		err = tr.Write(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// providerShapes returns every Provider implementation over the same
// fixed-seed stream: the materialized trace (the reference), the seeded
// regenerating spec, and the two file-backed streaming formats.
func providerShapes(t *testing.T, mcfg traffic.MMPPConfig, slots int) map[string]traffic.Provider {
	t.Helper()
	gen, err := traffic.NewMMPP(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := traffic.Record(gen, slots)
	mmpp, err := traffic.NewMMPPProvider(mcfg, slots)
	if err != nil {
		t.Fatal(err)
	}
	text, err := traffic.OpenFile(writeTraceFile(t, tr, false))
	if err != nil {
		t.Fatal(err)
	}
	bin, err := traffic.OpenFile(writeTraceFile(t, tr, true))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]traffic.Provider{
		"materialized": tr,
		"mmpp-spec":    mmpp,
		"file-text":    text,
		"file-binary":  bin,
	}
}

// runShape executes one Instance over the given provider and returns
// its results.
func runShape(t *testing.T, cell streamCell, src traffic.Provider, parallelism int) []sim.Result {
	t.Helper()
	inst := sim.Instance{
		Cfg:         cell.cfg,
		Policies:    cell.policies,
		Provider:    src,
		FlushEvery:  64,
		Parallelism: parallelism,
	}
	res, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireSameResults asserts two result slices are bit-identical,
// Stats included.
func requireSameResults(t *testing.T, label string, got, want []sim.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: result %d diverged\n got: %+v\nwant: %+v", label, i, got[i], want[i])
		}
	}
}

// TestStreamedMatchesMaterialized is the tentpole differential: every
// streaming Provider shape must reproduce the materialized run exactly —
// same Stats, same ratios — on fixed seeds.
func TestStreamedMatchesMaterialized(t *testing.T) {
	const slots = 400
	for _, seed := range []int64{1, 2} {
		for _, cell := range streamCells(seed) {
			cell := cell
			t.Run(fmt.Sprintf("%s/seed%d", cell.name, seed), func(t *testing.T) {
				shapes := providerShapes(t, cell.mcfg, slots)
				want := runShape(t, cell, shapes["materialized"], 0)
				for name, src := range shapes {
					if name == "materialized" {
						continue
					}
					got := runShape(t, cell, src, 0)
					requireSameResults(t, name, got, want)
				}
			})
		}
	}
}

// TestStreamedPortCountersMatch descends below Stats: the per-port
// counters of a switch driven from a streaming cursor must match the
// materialized replay port for port.
func TestStreamedPortCountersMatch(t *testing.T) {
	const slots = 400
	for _, cell := range streamCells(5) {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			shapes := providerShapes(t, cell.mcfg, slots)
			pol := cell.policies[0]
			run := func(src traffic.Provider) (core.Stats, []core.PortCounters) {
				sw, err := core.New(cell.cfg, pol)
				if err != nil {
					t.Fatal(err)
				}
				st, err := sim.RunTrace(sw, src, 64)
				if err != nil {
					t.Fatal(err)
				}
				return st, sw.PortCounters()
			}
			wantStats, wantPorts := run(shapes["materialized"])
			for name, src := range shapes {
				if name == "materialized" {
					continue
				}
				gotStats, gotPorts := run(src)
				if gotStats != wantStats {
					t.Errorf("%s: stats diverged\n got: %+v\nwant: %+v", name, gotStats, wantStats)
				}
				for i := range wantPorts {
					if gotPorts[i] != wantPorts[i] {
						t.Errorf("%s: port %d counters diverged\n got: %+v\nwant: %+v", name, i, gotPorts[i], wantPorts[i])
					}
				}
			}
		})
	}
}

// TestParallelMatchesSequential pins the intra-cell fan-out: an
// Instance run with Parallelism > 1 must produce exactly the sequential
// results across provider shapes.
func TestParallelMatchesSequential(t *testing.T) {
	const slots = 300
	for _, cell := range streamCells(9) {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			shapes := providerShapes(t, cell.mcfg, slots)
			for name, src := range shapes {
				seq := runShape(t, cell, src, 0)
				par := runShape(t, cell, src, 4)
				requireSameResults(t, name, par, seq)
			}
		})
	}
}

// TestSweepIntraCellSplit runs a one-cell sweep with a large worker
// budget — the shape that triggers the intra-cell split — and checks
// the aggregates equal a plain sequential run of the same cell.
func TestSweepIntraCellSplit(t *testing.T) {
	cell := streamCells(3)[0]
	prov, err := traffic.NewMMPPProvider(cell.mcfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	build := func(x int, seed int64) (sim.Instance, error) {
		return sim.Instance{
			Cfg:        cell.cfg,
			Policies:   cell.policies,
			Provider:   prov,
			FlushEvery: 64,
		}, nil
	}
	sweep := &sim.Sweep{
		Name:        "intra-split",
		XLabel:      "x",
		Xs:          []int{1},
		Seeds:       1,
		BaseSeed:    3,
		Build:       build,
		Parallelism: 8, // 1 cell, 8 workers: the cell gets the budget
	}
	res, err := sweep.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := build(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d points, want 1", len(res.Points))
	}
	for _, w := range want {
		got, ok := res.Points[0].Ratio[w.Policy]
		if !ok {
			t.Fatalf("policy %s missing from sweep point", w.Policy)
		}
		if got.Mean != w.Ratio {
			t.Errorf("%s: sweep ratio %v, sequential %v", w.Policy, got.Mean, w.Ratio)
		}
	}
}

// TestRunTraceReportsCursorFailure wires a corrupt stream into the
// harness: a file truncated mid-record must fail the run, not silently
// emit a shorter trace, both through RunTrace and through an instance
// run, whose error wraps the cursor's.
func TestRunTraceReportsCursorFailure(t *testing.T) {
	gen, err := traffic.NewMMPP(streamCells(1)[0].mcfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := traffic.Record(gen, 200)
	path := writeTraceFile(t, tr, true)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-record, leaving a partial 8-byte record at the tail.
	cut := len(raw) - len(raw)/3
	cut -= (cut - 10) % 8
	cut += 3
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := traffic.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cell := streamCells(1)[0]
	sw, err := core.New(cell.cfg, cell.policies[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunTrace(sw, src, 64); err == nil {
		t.Fatal("truncated stream did not fail the run")
	}
	inst := sim.Instance{Cfg: cell.cfg, Policies: cell.policies, Provider: src, FlushEvery: 64, Parallelism: 2}
	if _, err := inst.Run(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("instance run over the truncated stream: got %v, want the cursor's %v", err, io.ErrUnexpectedEOF)
	}
}
