// The micro workload: a congested 16-port switch over a fixed 256-slot,
// 8-packets/slot trace driven through Step+Drain+Reset. `go test -bench
// BenchmarkMicro` profiles the batched arrival hot path on it, and
// TestSteadyStateZeroAllocs gates every roster policy on it.
package sim_test

import (
	"math/rand"
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
)

func microTraceB(cfg core.Config, slots, burst int) [][]pkt.Packet {
	rng := rand.New(rand.NewSource(1))
	tr := make([][]pkt.Packet, slots)
	for s := range tr {
		bs := make([]pkt.Packet, burst)
		for i := range bs {
			port := rng.Intn(cfg.Ports)
			if cfg.Model == core.ModelValue {
				bs[i] = pkt.NewValue(port, 1+rng.Intn(cfg.MaxLabel))
			} else {
				bs[i] = pkt.NewWork(port, cfg.PortWork[port])
			}
		}
		tr[s] = bs
	}
	return tr
}

func benchMicro(b *testing.B, pol core.Policy) {
	cfg := core.Config{
		Model: core.ModelProcessing, Ports: 16, Buffer: 128, MaxLabel: 16,
		Speedup: 1, PortWork: core.ContiguousWorks(16),
	}
	tr := microTraceB(cfg, 256, 8)
	sw := core.MustNew(cfg, pol)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, burst := range tr {
			if err := sw.Step(burst); err != nil {
				b.Fatal(err)
			}
		}
		sw.Drain()
		sw.Reset()
	}
}

func BenchmarkMicroLQD(b *testing.B)    { benchMicro(b, policy.LQD{}) }
func BenchmarkMicroLWD(b *testing.B)    { benchMicro(b, policy.LWD{}) }
func BenchmarkMicroGreedy(b *testing.B) { benchMicro(b, policy.Greedy{}) }
func BenchmarkMicroNHST(b *testing.B)   { benchMicro(b, policy.NHST{}) }
