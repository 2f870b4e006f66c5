package shard

import (
	"fmt"
	"testing"
	"time"

	"smbm/internal/core"
	"smbm/internal/obs"
	"smbm/internal/policy"
)

// TestSeqCutConcurrentReads stores word vectors from one goroutine while
// another loads them continuously: under -race this checks the seqlock's
// atomic pairing, and every load must be one whole stored vector (word i
// is (i+1)·round) with rounds never going backwards.
func TestSeqCutConcurrentReads(t *testing.T) {
	const words, rounds = 16, 5000
	c := seqCut{words: make([]uint64, words)}
	src := make([]uint64, words)

	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		dst := make([]uint64, words)
		var last uint64
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			c.load(dst)
			round := dst[0]
			for i, v := range dst {
				if v != uint64(i+1)*round {
					readerDone <- fmt.Errorf("torn read: word %d = %d in round %d", i, v, round)
					return
				}
			}
			if round < last {
				readerDone <- fmt.Errorf("round went backwards: %d after %d", round, last)
				return
			}
			last = round
		}
	}()

	for r := uint64(1); r <= rounds; r++ {
		for i := range src {
			src[i] = uint64(i+1) * r
		}
		c.store(src)
	}
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, words)
	c.load(dst)
	for i, v := range dst {
		if v != src[i] {
			t.Fatalf("final word %d = %d, want %d", i, v, src[i])
		}
	}
}

// conservationGap describes the first conservation identity the cut
// breaks, or returns "" when it closes all five.
func conservationGap(c Cut) string {
	l := c.Live
	var admits, drops, pushOuts int64
	for p := 0; p*int(obs.NumKinds) < len(c.Counts); p++ {
		kc := obs.SlabCounts(c.Counts, p)
		admits += int64(kc.Admits)
		drops += int64(kc.TailDrops)
		pushOuts += int64(kc.PushOuts)
	}
	switch {
	case l.Arrived != l.Accepted+l.Dropped:
		return fmt.Sprintf("arrived %d != accepted %d + dropped %d", l.Arrived, l.Accepted, l.Dropped)
	case l.Accepted != l.PushedOut+l.Transmitted+l.Occupancy:
		return fmt.Sprintf("accepted %d != pushed out %d + transmitted %d + occupancy %d", l.Accepted, l.PushedOut, l.Transmitted, l.Occupancy)
	case admits != l.Accepted:
		return fmt.Sprintf("slab admits %d != accepted %d", admits, l.Accepted)
	case drops != l.Dropped:
		return fmt.Sprintf("slab tail drops %d != dropped %d", drops, l.Dropped)
	case pushOuts != l.PushedOut:
		return fmt.Sprintf("slab push-outs %d != pushed out %d", pushOuts, l.PushedOut)
	}
	return ""
}

// TestCutConservationUnderLoad reads every shard's cut continuously
// while a long IngestSlot stream runs: each read must close all five
// conservation identities, which only a consistent cut guarantees.
func TestCutConservationUnderLoad(t *testing.T) {
	cfg := testConfig()
	tr := testTrace(t, cfg, 4000, 21)
	factory := func() core.Policy { return policy.LWD{} }
	rt, err := NewRuntime(cfg, 2, factory, Options{RingCap: 256})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.BeginStream(); err != nil {
		t.Fatalf("BeginStream: %v", err)
	}

	stop := make(chan struct{})
	type report struct {
		reads, midStream int
		err              error
	}
	done := make(chan report, 1)
	go func() {
		var r report
		for {
			select {
			case <-stop:
				done <- r
				return
			default:
			}
			for i := 0; i < rt.Shards(); i++ {
				c := rt.Shard(i).Cut()
				if gap := conservationGap(c); gap != "" {
					r.err = fmt.Errorf("shard %d cut at slot %d: %s", i, c.Live.Slots, gap)
					done <- r
					return
				}
				r.reads++
				if c.Live.Slots > 0 && c.Live.Slots < int64(len(tr)) {
					r.midStream++
				}
			}
		}
	}()

	for slot, burst := range tr {
		if err := rt.IngestSlot(int64(slot), burst); err != nil {
			t.Fatalf("IngestSlot: %v", err)
		}
	}
	results, err := rt.Finish(int64(len(tr)))
	close(stop)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	checkOracle(t, rt, factory, tr, results)
	t.Logf("%d cut reads, %d mid-stream", r.reads, r.midStream)
}

// TestPublishedSlotsFresh ingests K slots without a drain barrier: the
// end-of-batch publish must bring every shard's published Slots to K
// while the producer idles, with the cut closing its identities.
func TestPublishedSlotsFresh(t *testing.T) {
	cfg := testConfig()
	const k = 500
	tr := testTrace(t, cfg, k, 8)
	rt, err := NewRuntime(cfg, 3, func() core.Policy { return policy.LQD{} }, Options{RingCap: 64})
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
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < rt.Shards(); i++ {
		for rt.Shard(i).Live().Slots != k {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d published %d slots, want %d", i, rt.Shard(i).Live().Slots, k)
			}
			time.Sleep(time.Millisecond)
		}
		if gap := conservationGap(rt.Shard(i).Cut()); gap != "" {
			t.Fatalf("shard %d: %s", i, gap)
		}
	}
	if _, err := rt.Finish(k); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestBeginStreamRightAfterFinish runs short streams back to back with
// BeginStream straight after each Finish. A shard that touched its state
// after acking the drain would race the producer's reset, which -race
// reports; each fresh stream must also publish an all-zero cut.
func TestBeginStreamRightAfterFinish(t *testing.T) {
	cfg := testConfig()
	tr := testTrace(t, cfg, 40, 13)
	rt, err := NewRuntime(cfg, 2, func() core.Policy { return policy.LWD{} }, Options{RingCap: 16})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	rt.Start()
	defer rt.Stop()
	for stream := 0; stream < 20; stream++ {
		if err := rt.BeginStream(); err != nil {
			t.Fatalf("stream %d: BeginStream: %v", stream, err)
		}
		if live := rt.LiveTotal(); live != (LiveSnapshot{}) {
			t.Fatalf("stream %d starts from %+v, want zero", stream, live)
		}
		for slot, burst := range tr {
			if err := rt.IngestSlot(int64(slot), burst); err != nil {
				t.Fatalf("stream %d: IngestSlot: %v", stream, err)
			}
		}
		results, err := rt.Finish(int64(len(tr)))
		if err != nil {
			t.Fatalf("stream %d: Finish: %v", stream, err)
		}
		for i, res := range results {
			if got := rt.Shard(i).Live(); got.Slots != res.Stats.Slots || got.Transmitted != res.Stats.Transmitted || got.Occupancy != 0 {
				t.Fatalf("stream %d shard %d: drained cut %+v, result stats %+v", stream, i, got, res.Stats)
			}
		}
	}
}
