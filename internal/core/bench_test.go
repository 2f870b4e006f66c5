package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"smbm/internal/pkt"
)

// benchTrace builds a saturating random burst sequence for the config.
func benchTrace(cfg Config, slots, burst int) [][]pkt.Packet {
	rng := rand.New(rand.NewSource(1))
	tr := make([][]pkt.Packet, slots)
	for s := range tr {
		bs := make([]pkt.Packet, burst)
		for i := range bs {
			port := rng.Intn(cfg.Ports)
			if cfg.Model == ModelValue {
				bs[i] = pkt.NewValue(port, 1+rng.Intn(cfg.MaxLabel))
			} else {
				bs[i] = pkt.NewWork(port, cfg.PortWork[port])
			}
		}
		tr[s] = bs
	}
	return tr
}

func benchRun(b *testing.B, cfg Config) {
	b.Helper()
	tr := benchTrace(cfg, 256, 8)
	sw := MustNew(cfg, PolicyFunc{PolicyName: "greedy", Func: func(v View, _ pkt.Packet) Decision {
		if v.Free() > 0 {
			return Accept()
		}
		return Drop()
	}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, burst := range tr {
			if err := sw.Step(burst); err != nil {
				b.Fatal(err)
			}
		}
		sw.Reset()
	}
}

func BenchmarkProcessingModelStep(b *testing.B) {
	benchRun(b, Config{
		Model: ModelProcessing, Ports: 16, Buffer: 128, MaxLabel: 16,
		Speedup: 1, PortWork: ContiguousWorks(16),
	})
}

func BenchmarkValueModelStep(b *testing.B) {
	benchRun(b, Config{
		Model: ModelValue, Ports: 16, Buffer: 128, MaxLabel: 16, Speedup: 1,
	})
}

// BenchmarkInvariantCheckingOverhead is the ablation for the
// CheckInvariants design flag: same workload with per-step verification.
func BenchmarkInvariantCheckingOverhead(b *testing.B) {
	benchRun(b, Config{
		Model: ModelProcessing, Ports: 16, Buffer: 128, MaxLabel: 16,
		Speedup: 1, PortWork: ContiguousWorks(16), CheckInvariants: true,
	})
}

// BenchmarkTransmit times the FIFO transmission phase alone, in ns per
// slot: 32 ports with contiguous works 1..32, every queue kept
// non-empty, at C = 1 (most slots only shorten a head-of-line residual)
// and C = 4 (low-work ports finish several packets per slot). Queues
// are refilled outside the timed region every transmitBatch slots, deep
// enough that none empties in between.
func BenchmarkTransmit(b *testing.B) {
	for _, c := range []int{1, 4} {
		b.Run(fmt.Sprintf("processing/C%d", c), func(b *testing.B) {
			benchTransmit(b, c)
		})
	}
}

const transmitBatch = 64

func benchTransmit(b *testing.B, c int) {
	const ports = 32
	cfg := Config{
		Model: ModelProcessing, Ports: ports, Buffer: ports * transmitBatch * c,
		MaxLabel: ports, Speedup: c, PortWork: ContiguousWorks(ports),
	}
	sw := MustNew(cfg, PolicyFunc{PolicyName: "none", Func: func(View, pkt.Packet) Decision { return Drop() }})
	refill := func() {
		for i, w := range cfg.PortWork {
			for sw.qLen[i] <= transmitBatch*c/w {
				sw.insert(pkt.NewWork(i, w))
			}
		}
	}
	var spent time.Duration
	b.ResetTimer()
	for done := 0; done < b.N; done += transmitBatch {
		refill()
		k := min(transmitBatch, b.N-done)
		start := time.Now()
		for j := 0; j < k; j++ {
			sw.Transmit()
		}
		spent += time.Since(start)
	}
	b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/slot")
}
