package policy

import (
	"math/rand"
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
)

// benchAdmit measures one policy's per-packet admission cost through
// its batch kernel — the path the engine runs — on a 64-port switch of
// the given model, reported as ns/pkt. The switch runs the policy
// itself and is warmed with 16·B arrivals and no transmission; with
// nothing leaving the buffer, occupancy stays constant from then on, so
// every timed burst meets the same congested steady state. Benchmark
// names are stable across the package unification, so older runs stay
// comparable.
func benchAdmit(b *testing.B, model core.Model, p core.Policy) {
	b.Helper()
	const (
		n     = 64
		burst = 16
	)
	cfg := core.Config{Model: model, Ports: n, Buffer: 4 * n, MaxLabel: n, Speedup: 1}
	if model == core.ModelProcessing {
		cfg.PortWork = core.ContiguousWorks(n)
	}
	sw := core.MustNew(cfg, p)
	rng := rand.New(rand.NewSource(1))
	mk := func() pkt.Packet {
		port := rng.Intn(n)
		if model == core.ModelProcessing {
			return pkt.NewWork(port, port+1)
		}
		return pkt.NewValue(port, 1+rng.Intn(n))
	}
	arrivals := make([]pkt.Packet, 1024)
	for i := range arrivals {
		arrivals[i] = mk()
	}
	bursts := len(arrivals) / burst
	arrive := func(i int) {
		k := i % bursts
		if err := sw.ArriveBatch(arrivals[k*burst : (k+1)*burst]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 16*cfg.Buffer/burst; i++ {
		arrive(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrive(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/pkt")
}

// Processing-model roster.
func BenchmarkAdmitGreedy(b *testing.B) { benchAdmit(b, core.ModelProcessing, Greedy{}) }
func BenchmarkAdmitNHST(b *testing.B)   { benchAdmit(b, core.ModelProcessing, NHST{}) }
func BenchmarkAdmitNEST(b *testing.B)   { benchAdmit(b, core.ModelProcessing, NEST{}) }
func BenchmarkAdmitNHDT(b *testing.B)   { benchAdmit(b, core.ModelProcessing, NHDT{}) }
func BenchmarkAdmitLQD(b *testing.B)    { benchAdmit(b, core.ModelProcessing, LQD{}) }
func BenchmarkAdmitBPD(b *testing.B)    { benchAdmit(b, core.ModelProcessing, BPD{}) }
func BenchmarkAdmitBPD1(b *testing.B)   { benchAdmit(b, core.ModelProcessing, BPD1{}) }
func BenchmarkAdmitLWD(b *testing.B)    { benchAdmit(b, core.ModelProcessing, LWD{}) }

// Value-model roster.
func BenchmarkAdmitValueLQD(b *testing.B) { benchAdmit(b, core.ModelValue, VLQD{}) }
func BenchmarkAdmitMVD(b *testing.B)      { benchAdmit(b, core.ModelValue, MVD{}) }
func BenchmarkAdmitMVD1(b *testing.B)     { benchAdmit(b, core.ModelValue, MVD1{}) }
func BenchmarkAdmitMRD(b *testing.B)      { benchAdmit(b, core.ModelValue, MRD{}) }
func BenchmarkAdmitNHSTV(b *testing.B)    { benchAdmit(b, core.ModelValue, NHSTV{}) }
