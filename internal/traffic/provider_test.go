package traffic

import (
	"runtime"
	"testing"
)

// liveHeap returns the live heap after two full collections, so that
// garbage the first one only queued (sync.Pool victims, finalizers)
// is gone too.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestMMPPProviderStreamedMemoryBound holds the streaming pipeline to
// O(1) memory in trace length: an open MMPP cursor 100k slots into the
// 16-port panel workload may retain at most 64 KiB of heap. The same
// trace materialized holds about 1.4 KB per slot, so a cursor that
// kept even one byte per slot would fail. The cursor allocates on
// every Next, so this bounds what stays live, not allocations.
func TestMMPPProviderStreamedMemoryBound(t *testing.T) {
	const (
		slots = 100_000
		bound = 64 << 10
	)
	works := make([]int, 16)
	for i := range works {
		works[i] = i + 1
	}
	cfg := MMPPConfig{
		Sources:      100,
		POnOff:       0.1,
		POffOn:       0.01,
		Label:        LabelWorkByPort,
		Ports:        16,
		MaxLabel:     16,
		PortWork:     works,
		PortAffinity: true,
		Seed:         1,
	}
	cfg.LambdaOn = cfg.LambdaForRate(2.5 * 16)
	prov, err := NewMMPPProvider(cfg, slots)
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	cur, err := prov.Open()
	if err != nil {
		t.Fatal(err)
	}
	packets := 0
	for range slots {
		packets += len(cur.Next())
	}
	resident := liveHeap() - before
	runtime.KeepAlive(cur)
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if packets == 0 {
		t.Fatal("cursor produced no packets")
	}
	if resident > bound {
		t.Fatalf("open cursor retains %d heap bytes after %d slots (%d packets), want <= %d", resident, slots, packets, bound)
	}
	t.Logf("resident %d bytes after %d slots (%d packets)", resident, slots, packets)
}
