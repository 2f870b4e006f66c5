package policy

import (
	"math/rand"
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
)

// benchAdmit measures one policy's per-packet decision cost on a full
// 64-port switch of the given model — the single parameterized harness
// behind every per-model benchmark below. Benchmark names are stable
// across the package unification, so older runs stay comparable.
func benchAdmit(b *testing.B, model core.Model, p core.Policy) {
	b.Helper()
	const n = 64
	cfg := core.Config{Model: model, Ports: n, Buffer: 4 * n, MaxLabel: n, Speedup: 1}
	if model != core.ModelValue {
		cfg.PortWork = core.ContiguousWorks(n)
	}
	sw := core.MustNew(cfg, Greedy{})
	rng := rand.New(rand.NewSource(1))
	mk := func() pkt.Packet {
		port := rng.Intn(n)
		switch model {
		case core.ModelProcessing:
			return pkt.NewWork(port, port+1)
		case core.ModelValue:
			return pkt.NewValue(port, 1+rng.Intn(n))
		default:
			return pkt.NewWorkValue(port, port+1, 1+rng.Intn(n))
		}
	}
	for sw.Free() > 0 {
		if err := sw.Arrive(mk()); err != nil {
			b.Fatal(err)
		}
	}
	arrivals := make([]pkt.Packet, 1024)
	for i := range arrivals {
		arrivals[i] = mk()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Admit(sw, arrivals[i%len(arrivals)])
	}
}

// Processing-model roster.
func BenchmarkAdmitGreedy(b *testing.B) { benchAdmit(b, core.ModelProcessing, Greedy{}) }
func BenchmarkAdmitNHST(b *testing.B)   { benchAdmit(b, core.ModelProcessing, NHST{}) }
func BenchmarkAdmitNEST(b *testing.B)   { benchAdmit(b, core.ModelProcessing, NEST{}) }
func BenchmarkAdmitNHDT(b *testing.B)   { benchAdmit(b, core.ModelProcessing, NHDT{}) }
func BenchmarkAdmitLQD(b *testing.B)    { benchAdmit(b, core.ModelProcessing, LQD{}) }
func BenchmarkAdmitBPD(b *testing.B)    { benchAdmit(b, core.ModelProcessing, BPD{}) }
func BenchmarkAdmitLWD(b *testing.B)    { benchAdmit(b, core.ModelProcessing, LWD{}) }

// Value-model roster.
func BenchmarkAdmitValueLQD(b *testing.B) { benchAdmit(b, core.ModelValue, VLQD{}) }
func BenchmarkAdmitMVD(b *testing.B)      { benchAdmit(b, core.ModelValue, MVD{}) }
func BenchmarkAdmitMVD1(b *testing.B)     { benchAdmit(b, core.ModelValue, MVD1{}) }
func BenchmarkAdmitMRD(b *testing.B)      { benchAdmit(b, core.ModelValue, MRD{}) }
func BenchmarkAdmitNHSTV(b *testing.B)    { benchAdmit(b, core.ModelValue, NHSTV{}) }

// Combined work×value roster.
func BenchmarkAdmitCombinedLWD(b *testing.B) { benchAdmit(b, core.ModelCombined, LWD{}) }
func BenchmarkAdmitCombinedMRD(b *testing.B) { benchAdmit(b, core.ModelCombined, MRD{}) }
func BenchmarkAdmitRVD(b *testing.B)         { benchAdmit(b, core.ModelCombined, RVD{}) }
