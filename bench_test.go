// Benchmark harness: one benchmark per evaluation artifact of the paper.
//
//   - BenchmarkFig5_* regenerate one seeded cell of the corresponding
//     Fig. 5 panel per iteration (full panels with tables come from
//     cmd/smbsim; these track the cost and report the measured
//     competitive ratio as a custom metric "ratio").
//   - BenchmarkTheorem* execute the lower-bound constructions
//     (cmd/lowerbound prints the full table) and report the measured
//     ratio alongside ns/op.
//
// Run with: go test -bench=. -benchmem
package smbm_test

import (
	"testing"

	"smbm"
	"smbm/internal/adversary"
	"smbm/internal/experiments"
)

// benchPanel runs one cell (the panel's middle x, one seed) per
// iteration and reports the named policy's empirical competitive ratio
// and the cell's allocations.
func benchPanel(b *testing.B, id, reportPolicy string) {
	b.Helper()
	opts := experiments.Options{
		Slots:      2000,
		Seeds:      1,
		Sources:    100,
		FlushEvery: 1000,
		BaseSeed:   1,
	}
	sweep, err := experiments.Panel(id, opts)
	if err != nil {
		b.Fatal(err)
	}
	mid := sweep.Xs[len(sweep.Xs)/2]
	var lastRatio float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := sweep.Build(mid, opts.BaseSeed)
		if err != nil {
			b.Fatal(err)
		}
		results, err := inst.Run()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Policy == reportPolicy {
				lastRatio = r.Ratio
			}
		}
	}
	b.ReportMetric(lastRatio, "ratio")
}

func BenchmarkFig5_1_ProcessingVsK(b *testing.B)  { benchPanel(b, "fig5.1", "LWD") }
func BenchmarkFig5_2_ProcessingVsB(b *testing.B)  { benchPanel(b, "fig5.2", "LWD") }
func BenchmarkFig5_3_ProcessingVsC(b *testing.B)  { benchPanel(b, "fig5.3", "LWD") }
func BenchmarkFig5_4_ValueVsK(b *testing.B)       { benchPanel(b, "fig5.4", "MRD") }
func BenchmarkFig5_5_ValueVsB(b *testing.B)       { benchPanel(b, "fig5.5", "MRD") }
func BenchmarkFig5_6_ValueVsC(b *testing.B)       { benchPanel(b, "fig5.6", "MVD") }
func BenchmarkFig5_7_ValueByPortVsK(b *testing.B) { benchPanel(b, "fig5.7", "MRD") }
func BenchmarkFig5_8_ValueByPortVsB(b *testing.B) { benchPanel(b, "fig5.8", "MRD") }
func BenchmarkFig5_9_ValueByPortVsC(b *testing.B) { benchPanel(b, "fig5.9", "MRD") }

// benchTheorem executes one lower-bound construction per iteration,
// reporting the measured adversarial ratio.
func benchTheorem(b *testing.B, id string, p adversary.Params) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		c, err := adversary.ByID(id, p)
		if err != nil {
			b.Fatal(err)
		}
		o, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = o.Ratio
	}
	b.ReportMetric(last, "ratio")
}

func BenchmarkTheorem1_NHST(b *testing.B) {
	benchTheorem(b, "thm1", adversary.Params{K: 8, B: 400, Rounds: 1, Warmup: 1})
}

func BenchmarkTheorem2_NEST(b *testing.B) {
	benchTheorem(b, "thm2", adversary.Params{K: 8, B: 400, Rounds: 1, Warmup: 1})
}

func BenchmarkTheorem3_NHDT(b *testing.B) {
	benchTheorem(b, "thm3", adversary.Params{K: 32, B: 1024, Rounds: 1, Warmup: 1})
}

func BenchmarkTheorem4_LQD(b *testing.B) {
	benchTheorem(b, "thm4", adversary.Params{K: 36, B: 720, Rounds: 1, Warmup: 1})
}

func BenchmarkTheorem5_BPD(b *testing.B) {
	benchTheorem(b, "thm5", adversary.Params{K: 8, Rounds: 1, Warmup: 1})
}

func BenchmarkTheorem6_LWD(b *testing.B) {
	benchTheorem(b, "thm6", adversary.Params{K: 6, B: 600, Rounds: 1, Warmup: 1})
}

func BenchmarkTheorem9_ValueLQD(b *testing.B) {
	benchTheorem(b, "thm9", adversary.Params{K: 27, B: 540, Rounds: 1, Warmup: 1})
}

func BenchmarkTheorem10_MVD(b *testing.B) {
	benchTheorem(b, "thm10", adversary.Params{K: 8, B: 64, Rounds: 1, Warmup: 1})
}

func BenchmarkTheorem11_MRD(b *testing.B) {
	benchTheorem(b, "thm11", adversary.Params{K: 6, B: 600, Rounds: 1, Warmup: 1})
}

// BenchmarkArchComparison regenerates the Fig. 1 architecture table
// (single queue vs shared memory) once per iteration and reports the
// shared-memory LWD ratio against the single-queue PQ winner.
func BenchmarkArchComparison(b *testing.B) {
	var lwdRatio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Architectures(experiments.Options{
			Slots:      1500,
			Seeds:      1,
			Sources:    50,
			FlushEvery: 500,
			BaseSeed:   1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == "SM-LWD" {
				lwdRatio = r.Ratio
			}
		}
	}
	b.ReportMetric(lwdRatio, "ratio-vs-1Q-PQ")
}

// BenchmarkEngineSlotThroughput measures raw simulator speed: packets
// pushed through a congested LWD switch per second.
func BenchmarkEngineSlotThroughput(b *testing.B) {
	cfg := smbm.Config{
		Model:    smbm.ModelProcessing,
		Ports:    16,
		Buffer:   256,
		MaxLabel: 16,
		Speedup:  1,
		PortWork: smbm.ContiguousWorks(16),
	}
	mmpp := smbm.MMPPConfig{
		Sources:      100,
		POnOff:       0.1,
		POffOn:       0.01,
		Label:        smbm.LabelWorkByPort,
		Ports:        16,
		MaxLabel:     16,
		PortWork:     cfg.PortWork,
		PortAffinity: true,
		Seed:         1,
	}
	mmpp.LambdaOn = mmpp.LambdaForRate(10)
	gen, err := smbm.NewMMPP(mmpp)
	if err != nil {
		b.Fatal(err)
	}
	trace := smbm.RecordTrace(gen, 2000)
	sw, err := smbm.NewSwitch(cfg, smbm.LWD())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, burst := range trace {
			if err := sw.Step(burst); err != nil {
				b.Fatal(err)
			}
		}
		sw.Drain()
		sw.Reset()
	}
	b.SetBytes(0)
	b.ReportMetric(float64(trace.Packets()), "pkts/op")
}
