package policy

import (
	"math/rand"
	"testing"
	"time"

	"smbm/internal/core"
	"smbm/internal/pkt"
)

// benchAdmit measures one policy's per-packet admission cost through
// its batch kernel — the path the engine runs — on a 64-port switch of
// the given model, reported as ns/pkt. Each iteration is one slot: a
// burst of 1.5·n arrivals (tracegen's default rate), then a
// transmission phase. Only ArriveBatch is timed, so ns/pkt leaves the
// transmission out. At most n packets leave per slot, fewer than
// arrive, so after the warm-up every burst meets a full buffer that
// still turns over. The pushout/pkt metric is the share of timed
// arrivals that pushed a packet out. At -benchtime 20000x it reads
// 0.108 for LQD and LWD, 0.065 for BPD and 0.078 for BPD1, and in the
// value model 0.31 for LQD, 0.35 for MVD, 0.31 for MVD1 and 0.30 for
// MRD; the threshold rules never push out.
func benchAdmit(b *testing.B, model core.Model, p core.Policy) {
	b.Helper()
	const (
		n     = 64
		burst = 3 * n / 2
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
	arrivals := make([]pkt.Packet, 16*burst)
	for i := range arrivals {
		arrivals[i] = mk()
	}
	bursts := len(arrivals) / burst
	var spent time.Duration
	slot := func(i int) {
		k := i % bursts
		start := time.Now()
		if err := sw.ArriveBatch(arrivals[k*burst : (k+1)*burst]); err != nil {
			b.Fatal(err)
		}
		spent += time.Since(start)
		sw.Transmit()
	}
	for i := 0; i < 16*cfg.Buffer/burst; i++ {
		slot(i)
	}
	warm := sw.Stats()
	spent = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot(i)
	}
	b.StopTimer()
	st := sw.Stats()
	pkts := float64(b.N * burst)
	b.ReportMetric(float64(spent.Nanoseconds())/pkts, "ns/pkt")
	b.ReportMetric(float64(st.PushedOut-warm.PushedOut)/pkts, "pushout/pkt")
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
