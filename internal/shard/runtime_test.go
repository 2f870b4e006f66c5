package shard

import (
	"fmt"
	"sync"
	"testing"

	"smbm/internal/core"
	"smbm/internal/obs"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

func TestPartitionPorts(t *testing.T) {
	parts := PartitionPorts(10, 3)
	want := []Partition{{0, 4}, {4, 7}, {7, 10}}
	for i := range want {
		if parts[i] != want[i] {
			t.Fatalf("parts = %v, want %v", parts, want)
		}
	}
}

func TestShardConfigBufferSplit(t *testing.T) {
	cfg := core.Config{
		Model:    core.ModelProcessing,
		Ports:    10,
		Buffer:   23,
		MaxLabel: 4,
		Speedup:  1,
		PortWork: []int{1, 1, 2, 2, 2, 3, 3, 4, 4, 4},
	}
	parts := PartitionPorts(cfg.Ports, 3)
	var sumB, sumP int
	for i := range parts {
		sc := ShardConfig(cfg, parts, i)
		if sc.Ports != parts[i].Ports() {
			t.Fatalf("shard %d ports = %d, want %d", i, sc.Ports, parts[i].Ports())
		}
		if sc.Buffer < sc.Ports {
			t.Fatalf("shard %d buffer %d < ports %d", i, sc.Buffer, sc.Ports)
		}
		if len(sc.PortWork) != sc.Ports {
			t.Fatalf("shard %d portwork len = %d", i, len(sc.PortWork))
		}
		for j, w := range sc.PortWork {
			if w != cfg.PortWork[parts[i].Lo+j] {
				t.Fatalf("shard %d portwork = %v", i, sc.PortWork)
			}
		}
		sumB += sc.Buffer
		sumP += sc.Ports
	}
	if sumB != cfg.Buffer || sumP != cfg.Ports {
		t.Fatalf("splits sum to B=%d P=%d, want B=%d P=%d", sumB, sumP, cfg.Buffer, cfg.Ports)
	}
}

// testTrace materializes a seeded bursty MMPP trace for the given
// global configuration.
func testTrace(t *testing.T, cfg core.Config, slots int, seed int64) traffic.Trace {
	t.Helper()
	mc := traffic.MMPPConfig{
		Sources:  2 * cfg.Ports,
		LambdaOn: 1.2,
		POnOff:   0.05,
		POffOn:   0.2,
		Label:    traffic.LabelWorkByPort,
		Ports:    cfg.Ports,
		MaxLabel: cfg.MaxLabel,
		PortWork: cfg.PortWork,
		Seed:     seed,
	}
	g, err := traffic.NewMMPP(mc)
	if err != nil {
		t.Fatalf("mmpp: %v", err)
	}
	return traffic.Record(g, slots)
}

// oracle replays one shard's traffic partition through the
// single-threaded harness and returns the bit-exact reference triple.
func oracle(t *testing.T, cfg core.Config, pol core.Policy, local traffic.Trace) (core.Stats, []core.PortCounters, []uint64) {
	t.Helper()
	sw, err := core.New(cfg, pol)
	if err != nil {
		t.Fatalf("oracle switch: %v", err)
	}
	rec := obs.NewRecorder(cfg.Ports, 0)
	sw.SetRecorder(rec)
	stats, err := sim.RunTrace(sw, local, 0)
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	return stats, sw.PortCounters(), rec.SaveCounts(nil)
}

// checkOracle asserts every shard result is bit-identical to the
// single-threaded replay of its partition.
func checkOracle(t *testing.T, rt *Runtime, pol func() core.Policy, tr traffic.Trace, results []Result) {
	t.Helper()
	for i, res := range results {
		local := FilterTrace(tr, rt.Partition(i))
		wantStats, wantPorts, wantCounts := oracle(t, rt.ShardConfig(i), pol(), local)
		if diff := DiffResult(res, wantStats, wantPorts, wantCounts); diff != "" {
			t.Fatalf("oracle differential: %s", diff)
		}
	}
}

func testConfig() core.Config {
	return core.Config{
		Model:    core.ModelProcessing,
		Ports:    8,
		Buffer:   32,
		MaxLabel: 4,
		Speedup:  1,
		PortWork: []int{1, 1, 2, 2, 3, 3, 4, 4},
	}
}

func TestRuntimeOracleDifferential(t *testing.T) {
	cfg := testConfig()
	tr := testTrace(t, cfg, 400, 42)
	factory := func() core.Policy { return policy.LQD{} }

	for _, shards := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rt, err := NewRuntime(cfg, shards, factory, Options{RingCap: 64})
			if err != nil {
				t.Fatalf("NewRuntime: %v", err)
			}
			rt.Start()
			defer rt.Stop()
			// One stream per producer path: per packet (Ingest, then
			// Advance), and per slot (IngestSlot).
			if err := rt.BeginStream(); err != nil {
				t.Fatalf("BeginStream: %v", err)
			}
			for slot, burst := range tr {
				for _, p := range burst {
					if err := rt.Ingest(int64(slot), p); err != nil {
						t.Fatalf("Ingest: %v", err)
					}
				}
				rt.Advance(int64(slot) + 1)
			}
			results, err := rt.Finish(int64(len(tr)))
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			checkOracle(t, rt, factory, tr, results)

			if err := rt.BeginStream(); err != nil {
				t.Fatalf("BeginStream: %v", err)
			}
			for slot, burst := range tr {
				if err := rt.IngestSlot(int64(slot), burst); err != nil {
					t.Fatalf("IngestSlot: %v", err)
				}
			}
			if results, err = rt.Finish(int64(len(tr))); err != nil {
				t.Fatalf("Finish: %v", err)
			}
			checkOracle(t, rt, factory, tr, results)
		})
	}
}

// TestInvalidPacketCutsAtSlotBoundary rejects a packet partway through
// slot k, after packets of slot k that route to other shards, and then
// cuts the stream with Finish(k): every shard must have stepped exactly
// k slots and match the oracle over tr[:k], whichever producer path
// fed it. Per slot, IngestSlot publishes nothing of a slot it rejects;
// per packet, the drain barrier discards the staged part of slot k.
func TestInvalidPacketCutsAtSlotBoundary(t *testing.T) {
	cfg := testConfig()
	const k = 60
	tr := testTrace(t, cfg, 120, 5)
	bad := append([]pkt.Packet{}, tr[k]...)
	bad = append(bad, pkt.Packet{Port: 0, Work: 1, Value: 1}, pkt.Packet{Port: cfg.Ports - 1, Work: cfg.PortWork[cfg.Ports-1], Value: 1})
	bad = append(bad, pkt.Packet{Port: cfg.Ports, Work: 1, Value: 1})
	factory := func() core.Policy { return policy.LQD{} }

	rt, err := NewRuntime(cfg, 3, factory, Options{RingCap: 64})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	rt.Start()
	defer rt.Stop()
	for _, path := range []string{"slot", "packet"} {
		t.Run(path, func(t *testing.T) {
			if err := rt.BeginStream(); err != nil {
				t.Fatalf("BeginStream: %v", err)
			}
			feed := func(slot int, burst []pkt.Packet) error {
				if path == "slot" {
					return rt.IngestSlot(int64(slot), burst)
				}
				for _, p := range burst {
					if err := rt.Ingest(int64(slot), p); err != nil {
						return err
					}
				}
				rt.Advance(int64(slot) + 1)
				return nil
			}
			for slot := 0; slot < k; slot++ {
				if err := feed(slot, tr[slot]); err != nil {
					t.Fatalf("slot %d: %v", slot, err)
				}
			}
			if err := feed(k, bad); err == nil {
				t.Fatalf("slot %d with an out-of-range port accepted", k)
			}
			results, err := rt.Finish(k)
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			for _, res := range results {
				if res.Slots != k {
					t.Fatalf("shard %d stepped %d slots, want %d", res.Shard, res.Slots, k)
				}
			}
			checkOracle(t, rt, factory, tr[:k], results)
		})
	}
}

// TestIngestSlotZeroAllocs pins the per-slot producer path at zero
// allocations once the staging slices have grown.
func TestIngestSlotZeroAllocs(t *testing.T) {
	cfg := testConfig()
	tr := testTrace(t, cfg, 600, 3)
	rt, err := NewRuntime(cfg, 2, func() core.Policy { return policy.LQD{} }, Options{RingCap: 256})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.BeginStream(); err != nil {
		t.Fatalf("BeginStream: %v", err)
	}
	slot := 0
	ingest := func() {
		if err := rt.IngestSlot(int64(slot), tr[slot]); err != nil {
			t.Fatalf("IngestSlot: %v", err)
		}
		slot++
	}
	for slot < 100 {
		ingest()
	}
	if allocs := testing.AllocsPerRun(400, ingest); allocs != 0 {
		t.Errorf("IngestSlot allocates %.2f times per slot, want 0", allocs)
	}
	if _, err := rt.Finish(int64(slot)); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestRuntimeLazyAdvance drops the per-slot Advance calls: shards are
// advanced only by later arrivals and the final Finish barrier. The
// stepped slot sequence must be identical either way.
func TestRuntimeLazyAdvance(t *testing.T) {
	cfg := testConfig()
	tr := testTrace(t, cfg, 300, 7)
	factory := func() core.Policy { return policy.LWD{} }

	rt, err := NewRuntime(cfg, 3, factory, Options{RingCap: 128})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.BeginStream(); err != nil {
		t.Fatalf("BeginStream: %v", err)
	}
	for slot, burst := range tr {
		for _, p := range burst {
			if err := rt.Ingest(int64(slot), p); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
		}
	}
	results, err := rt.Finish(int64(len(tr)))
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	checkOracle(t, rt, factory, tr, results)
}

// TestFeederSharded drives each shard from its own producer goroutine
// over the pre-partitioned trace — the selftest loadgen's shape — and
// checks the oracle differential per shard.
func TestFeederSharded(t *testing.T) {
	cfg := testConfig()
	tr := testTrace(t, cfg, 400, 99)
	factory := func() core.Policy { return policy.LQD{} }

	rt, err := NewRuntime(cfg, 4, factory, Options{RingCap: 64})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.BeginStream(); err != nil {
		t.Fatalf("BeginStream: %v", err)
	}

	results := make([]Result, rt.Shards())
	errs := make([]error, rt.Shards())
	var wg sync.WaitGroup
	for i := 0; i < rt.Shards(); i++ {
		local := FilterTrace(tr, rt.Partition(i))
		f := rt.Feeder(i)
		wg.Add(1)
		go func(i int, local traffic.Trace) {
			defer wg.Done()
			for slot, burst := range local {
				for _, p := range burst {
					f.Arrive(int64(slot), p)
				}
			}
			results[i], errs[i] = f.Finish(int64(len(local)))
		}(i, local)
	}
	wg.Wait()
	rt.EndStream()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	checkOracle(t, rt, factory, tr, results)
}

// TestPolicySwapBetweenStreams swaps the admission policy across
// streams and checks each stream against its own policy's oracle —
// including that the second stream starts from a clean slate.
func TestPolicySwapBetweenStreams(t *testing.T) {
	cfg := testConfig()
	tr := testTrace(t, cfg, 250, 11)
	greedy := func() core.Policy { return policy.Greedy{} }
	lqd := func() core.Policy { return policy.LQD{} }

	rt, err := NewRuntime(cfg, 2, greedy, Options{RingCap: 64})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	rt.Start()
	defer rt.Stop()

	run := func(pol func() core.Policy) {
		t.Helper()
		if err := rt.BeginStream(); err != nil {
			t.Fatalf("BeginStream: %v", err)
		}
		if err := rt.SetPolicy(pol); err == nil {
			t.Fatalf("SetPolicy during a stream succeeded")
		}
		for slot, burst := range tr {
			for _, p := range burst {
				if err := rt.Ingest(int64(slot), p); err != nil {
					t.Fatalf("Ingest: %v", err)
				}
			}
		}
		results, err := rt.Finish(int64(len(tr)))
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		checkOracle(t, rt, pol, tr, results)
	}

	run(greedy)
	if rt.PolicyName() != (policy.Greedy{}).Name() {
		t.Fatalf("policy = %s before swap", rt.PolicyName())
	}
	if err := rt.SetPolicy(lqd); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	if rt.PolicyName() != (policy.LQD{}).Name() {
		t.Fatalf("policy = %s after swap", rt.PolicyName())
	}
	run(lqd)
}

func TestRuntimeGuards(t *testing.T) {
	cfg := testConfig()
	factory := func() core.Policy { return policy.LQD{} }

	if _, err := NewRuntime(cfg, 0, factory, Options{}); err == nil {
		t.Fatalf("0 shards accepted")
	}
	if _, err := NewRuntime(cfg, cfg.Ports+1, factory, Options{}); err == nil {
		t.Fatalf("more shards than ports accepted")
	}
	big := cfg
	big.MaxLabel = 256
	if _, err := NewRuntime(big, 1, factory, Options{}); err == nil {
		t.Fatalf("MaxLabel 256 accepted")
	}

	rt, err := NewRuntime(cfg, 2, factory, Options{RingCap: 64})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.BeginStream(); err == nil {
		t.Fatalf("BeginStream before Start succeeded")
	}
	rt.Start()
	defer rt.Stop()
	if _, err := rt.Finish(0); err == nil {
		t.Fatalf("Finish without a stream succeeded")
	}
	if err := rt.BeginStream(); err != nil {
		t.Fatalf("BeginStream: %v", err)
	}
	if err := rt.BeginStream(); err == nil {
		t.Fatalf("second BeginStream succeeded")
	}
	if err := rt.Ingest(0, pkt.Packet{Port: cfg.Ports, Work: 1, Value: 1}); err == nil {
		t.Fatalf("out-of-range port ingested")
	}
	if err := rt.Ingest(1<<32, pkt.New(0)); err == nil {
		t.Fatalf("slot beyond 32 bits ingested")
	}
	// Both producer paths refuse slot 2^32-1: its advance and drain at
	// 2^32 would wrap to slot 0 in the ring encoding.
	if err := rt.Ingest(1<<32-1, pkt.New(0)); err == nil {
		t.Fatalf("arrival whose drain overflows 32 bits ingested")
	}
	if err := rt.IngestSlot(1<<32-1, nil); err == nil {
		t.Fatalf("slot whose advance overflows 32 bits ingested")
	}
	results, err := rt.Finish(0)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	for _, res := range results {
		if res.Stats.Arrived != 0 {
			t.Fatalf("shard %d saw %d arrivals from refused ingests", res.Shard, res.Stats.Arrived)
		}
	}
	rt.Stop()
	if err := rt.BeginStream(); err == nil {
		t.Fatalf("BeginStream after Stop succeeded")
	}
}

// TestFinishRefusesWideSlot refuses drain slots the ring encoding would
// wrap, before any shard sees them: the stream stays active and a valid
// Finish still ends it.
func TestFinishRefusesWideSlot(t *testing.T) {
	cfg := testConfig()
	tr := testTrace(t, cfg, 30, 4)
	factory := func() core.Policy { return policy.LQD{} }
	rt, err := NewRuntime(cfg, 2, factory, Options{RingCap: 64})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.BeginStream(); err != nil {
		t.Fatalf("BeginStream: %v", err)
	}
	for slot, burst := range tr {
		if err := rt.IngestSlot(int64(slot), burst); err != nil {
			t.Fatalf("IngestSlot: %v", err)
		}
	}
	for _, upto := range []int64{1 << 32, 1<<32 + int64(len(tr)), -1} {
		if _, err := rt.Finish(upto); err == nil {
			t.Fatalf("Finish(%d) accepted", upto)
		}
		if !rt.Streaming() {
			t.Fatalf("refused Finish(%d) ended the stream", upto)
		}
	}
	results, err := rt.Finish(int64(len(tr)))
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	checkOracle(t, rt, factory, tr, results)
}

// BenchmarkRuntimeIngestSlot streams pre-decoded MMPP slots through a
// 2-shard runtime in smbsimd's benchmark configuration (16 ports,
// contiguous works, k = 16, B = 128, LWD), one stream per iteration from
// BeginStream through Finish, and reports ns per packet.
func BenchmarkRuntimeIngestSlot(b *testing.B) {
	const ports, slots = 16, 4096
	cfg := core.Config{
		Model:    core.ModelProcessing,
		Ports:    ports,
		Buffer:   128,
		MaxLabel: ports,
		Speedup:  1,
		PortWork: core.ContiguousWorks(ports),
	}
	mc := traffic.MMPPConfig{
		Sources:      100,
		POnOff:       0.1,
		POffOn:       0.01,
		Label:        traffic.LabelWorkByPort,
		Ports:        ports,
		MaxLabel:     ports,
		PortWork:     cfg.PortWork,
		PortAffinity: true,
		Seed:         1,
	}
	mc.LambdaOn = mc.LambdaForRate(1.5 * ports)
	g, err := traffic.NewMMPP(mc)
	if err != nil {
		b.Fatalf("mmpp: %v", err)
	}
	tr := traffic.Record(g, slots)
	var packets int
	for _, burst := range tr {
		packets += len(burst)
	}
	rt, err := NewRuntime(cfg, 2, func() core.Policy { return policy.LWD{} }, Options{})
	if err != nil {
		b.Fatalf("NewRuntime: %v", err)
	}
	rt.Start()
	defer rt.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.BeginStream(); err != nil {
			b.Fatalf("BeginStream: %v", err)
		}
		for slot, burst := range tr {
			if err := rt.IngestSlot(int64(slot), burst); err != nil {
				b.Fatalf("IngestSlot: %v", err)
			}
		}
		if _, err := rt.Finish(slots); err != nil {
			b.Fatalf("Finish: %v", err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*packets), "ns/pkt")
}
