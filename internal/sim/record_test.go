package sim_test

import (
	"reflect"
	"sync/atomic"
	"testing"

	"smbm/internal/pkt"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// countingProvider counts the cursors opened on the wrapped provider,
// telling replays of an instance run's recording apart from
// regenerations.
type countingProvider struct {
	traffic.Provider
	opens atomic.Int64
}

// Open implements traffic.Provider.
func (p *countingProvider) Open() (traffic.Cursor, error) {
	p.opens.Add(1)
	return p.Provider.Open()
}

// TestInstanceRecordsArrivalsOnce pins the recording contract within
// sim.MemoBytes: an instance run opens its provider exactly once, at
// any Parallelism, and every replay reads that one recording, with
// results identical across widths.
func TestInstanceRecordsArrivalsOnce(t *testing.T) {
	for _, cell := range streamCells(5) {
		prov, err := traffic.NewMMPPProvider(cell.mcfg, 500)
		if err != nil {
			t.Fatal(err)
		}
		var want []sim.Result
		for _, par := range []int{1, 4} {
			src := &countingProvider{Provider: prov}
			got, err := sim.Instance{Cfg: cell.cfg, Policies: cell.policies, Provider: src, FlushEvery: 64, Parallelism: par}.Run()
			if err != nil {
				t.Fatalf("%s at parallelism %d: %v", cell.name, par, err)
			}
			if n := src.opens.Load(); n != 1 {
				t.Errorf("%s at parallelism %d: provider opened %d times, want 1", cell.name, par, n)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: parallelism %d results differ from parallelism 1", cell.name, par)
			}
		}
	}
}

// TestInstanceOverBudgetStreams pins both over-budget branches of an
// instance run's recording: a stream whose slot count alone exceeds
// sim.MemoBytes is never opened for recording, and one whose packets
// overrun the budget mid-stream is opened once for the abandoned
// recording. Either way every replay streams its own cursor, and the
// results equal the run over the materialized trace.
func TestInstanceOverBudgetStreams(t *testing.T) {
	cell := streamCells(1)[1] // value model: any port and value in range
	cfg, policies := cell.cfg, cell.policies[:2]
	burst := func(n int) []pkt.Packet {
		b := make([]pkt.Packet, n)
		for i := range b {
			b[i] = pkt.NewValue(i%cfg.Ports, 1+i%cfg.MaxLabel)
		}
		return b
	}
	const bytesPerUnit = 24 // the recording's charge per slot and per packet
	slotsOver := make(traffic.Trace, 64)
	slotsOver[0] = burst(3*cfg.Ports + 1)
	packetsOver := traffic.Trace{burst(400)}
	cases := []struct {
		name     string
		src      traffic.Repeat
		recorded int64 // cursors the recording opens
	}{
		{"slots", traffic.Repeat{Round: slotsOver, Rounds: sim.MemoBytes/bytesPerUnit/len(slotsOver) + 1}, 0},
		{"packets", traffic.Repeat{Round: packetsOver, Rounds: sim.MemoBytes/bytesPerUnit/len(packetsOver[0]) + 1}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The materialized oracle shares the round's slots, which
			// replays only read.
			tr := make(traffic.Trace, c.src.Slots())
			for s := range tr {
				tr[s] = c.src.Round[s%len(c.src.Round)]
			}
			want, err := sim.Instance{Cfg: cfg, Policies: policies, Provider: tr, FlushEvery: 1000}.Run()
			if err != nil {
				t.Fatal(err)
			}
			src := &countingProvider{Provider: c.src}
			got, err := sim.Instance{Cfg: cfg, Policies: policies, Provider: src, FlushEvery: 1000, Parallelism: 2}.Run()
			if err != nil {
				t.Fatal(err)
			}
			if n, replays := src.opens.Load(), int64(len(policies)+1); n != c.recorded+replays {
				t.Errorf("provider opened %d times, want %d recording + %d replays", n, c.recorded, replays)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("streamed results differ from the materialized run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
