package opt

import (
	"math/rand"
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
)

func BenchmarkSPQProcStep(b *testing.B) {
	cfg := core.Config{
		Model: core.ModelProcessing, Ports: 16, Buffer: 256,
		MaxLabel: 16, Speedup: 1, PortWork: core.ContiguousWorks(16),
	}
	s, err := NewSPQ(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	burst := make([]pkt.Packet, 32)
	for i := range burst {
		port := rng.Intn(16)
		burst[i] = pkt.NewWork(port, port+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(burst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPQValStep(b *testing.B) {
	cfg := core.Config{Model: core.ModelValue, Ports: 16, Buffer: 256, MaxLabel: 16, Speedup: 1}
	s, err := NewSPQ(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	burst := make([]pkt.Packet, 32)
	for i := range burst {
		burst[i] = pkt.NewValue(rng.Intn(16), 1+rng.Intn(16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(burst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactProcessing and BenchmarkExactValue track the exact
// solver's cost on a small instance (it guards the property-test
// budget).
func BenchmarkExactProcessing(b *testing.B) {
	benchExact(b, core.Config{
		Model: core.ModelProcessing, Ports: 3, Buffer: 4,
		MaxLabel: 3, Speedup: 1, PortWork: []int{1, 2, 3},
	})
}

func BenchmarkExactValue(b *testing.B) {
	benchExact(b, core.Config{Model: core.ModelValue, Ports: 3, Buffer: 4, MaxLabel: 4, Speedup: 1})
}

func benchExact(b *testing.B, cfg core.Config) {
	rng := rand.New(rand.NewSource(1))
	tr := randomTinyTrace(rng, cfg, 5, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exact(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}
