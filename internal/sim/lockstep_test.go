package sim_test

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/sim"
	"smbm/internal/singleq"
	"smbm/internal/traffic"
)

// countingProvider counts the cursors opened on the wrapped provider,
// telling one stream per instance run apart from regenerations.
type countingProvider struct {
	traffic.Provider
	opens atomic.Int64
}

// Open implements traffic.Provider.
func (p *countingProvider) Open() (traffic.Cursor, error) {
	p.opens.Add(1)
	return p.Provider.Open()
}

// TestInstanceRecordsArrivalsOnce pins the one-stream contract: an
// instance run opens its provider exactly once, at any Parallelism,
// and every replay steps through the windows of that one cursor, with
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

// TestInstanceOverBudgetStreams pins that stream length costs no extra
// opens: streams longer than the 32 MiB recording budget of earlier
// versions (24 bytes per slot and per packet), by slot count alone or
// by packets, open their provider once per run and give the results of
// the run over the materialized trace.
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
	const oldBudgetUnits = 32 << 20 / 24 // slots or packets the old budget held
	slotsOver := make(traffic.Trace, 64)
	slotsOver[0] = burst(3*cfg.Ports + 1)
	packetsOver := traffic.Trace{burst(400)}
	cases := []struct {
		name string
		src  traffic.Repeat
	}{
		{"slots", traffic.Repeat{Round: slotsOver, Rounds: oldBudgetUnits/len(slotsOver) + 1}},
		{"packets", traffic.Repeat{Round: packetsOver, Rounds: oldBudgetUnits/len(packetsOver[0]) + 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The materialized oracle shares the round's slots, which
			// runs only read.
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
			if n := src.opens.Load(); n != 1 {
				t.Errorf("provider opened %d times, want 1", n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("streamed results differ from the materialized run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// scribbleProvider serves a trace through cursors that reuse one burst
// buffer and overwrite the previous burst on every Next, as a borrowed
// burst may be: a run that kept a burst past the next call, instead of
// copying it, would step its systems over scribbled packets.
type scribbleProvider struct{ tr traffic.Trace }

// Slots implements traffic.Provider.
func (p scribbleProvider) Slots() int { return len(p.tr) }

// Open implements traffic.Provider.
func (p scribbleProvider) Open() (traffic.Cursor, error) {
	return traffic.AsCursor(&scribbleCursor{tr: p.tr}), nil
}

// scribbleCursor is scribbleProvider's cursor.
type scribbleCursor struct {
	tr  traffic.Trace
	pos int
	buf []pkt.Packet
}

// Next implements traffic.Source.
func (c *scribbleCursor) Next() []pkt.Packet {
	for i := range c.buf {
		c.buf[i] = pkt.NewWork(0, 1) // value and work 1 on port 0: legal, and wrong
	}
	if c.pos >= len(c.tr) {
		return nil
	}
	c.buf = append(c.buf[:0], c.tr[c.pos]...)
	c.pos++
	return c.buf
}

// soloRun steps sys alone over the materialized trace with the
// plainest loop there is: Step per slot, a drain (bounded, where sys
// supports it) after every slot that closes a flush interval and once
// at the end.
func soloRun(t *testing.T, sys sim.System, tr traffic.Trace, flushEvery, drainMax int) core.Stats {
	t.Helper()
	drain := func() {
		if bd, ok := sys.(sim.BoundedDrainer); !ok {
			sys.Drain()
		} else if _, ok := bd.DrainMax(drainMax); !ok {
			t.Fatalf("%s: drain did not empty", sys.Name())
		}
	}
	for s, burst := range tr {
		if err := sys.Step(burst); err != nil {
			t.Fatalf("%s at slot %d: %v", sys.Name(), s, err)
		}
		if (s+1)%flushEvery == 0 {
			drain()
		}
	}
	drain()
	return sys.Stats()
}

// TestLockstepMatchesSoloReplays is the lockstep loop's differential:
// an instance run, which copies each window of slots from one cursor
// and steps every system through it, must give each system the Stats
// of that system run on its own over a materialized copy of the
// stream. The cursor overwrites its previous burst on every Next, the
// slot count is not a multiple of the 256-slot window and the flush
// interval does not divide it; at Parallelism 1 and 4.
func TestLockstepMatchesSoloReplays(t *testing.T) {
	const slots, flushEvery = 3*256 + 77, 100
	for _, cell := range streamCells(7) {
		gen, err := traffic.NewMMPP(cell.mcfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := traffic.Record(gen, slots)
		solo := func(sys sim.System, err error) core.Stats {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			return soloRun(t, sys, tr, flushEvery, sim.DrainBound(cell.cfg))
		}
		optStats := solo(sim.NewOptProxy(cell.cfg))
		for _, par := range []int{1, 4} {
			name := fmt.Sprintf("%s/parallelism=%d", cell.name, par)
			got, err := sim.Instance{
				Cfg: cell.cfg, Policies: cell.policies, Provider: scribbleProvider{tr},
				FlushEvery: flushEvery, Parallelism: par,
			}.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, p := range cell.policies {
				want := solo(core.New(cell.cfg, p))
				if got[i].Stats != want {
					t.Errorf("%s: %s: lockstep Stats %+v, solo %+v", name, p.Name(), got[i].Stats, want)
				}
				if opt := optStats.Throughput(cell.cfg.Model); got[i].OptThroughput != opt {
					t.Errorf("%s: %s: OPT proxy objective %d, solo %d", name, p.Name(), got[i].OptThroughput, opt)
				}
			}
		}
	}
}

// TestLockstepMixedSystems is the exported runner's differential over
// unlike systems: single-queue switches of both orders, the OPT proxy
// and shared-memory switches stepped by one Lockstep call must each end
// with the Stats of that system run alone over a materialized copy of
// the stream, at 1 and 4 workers. The cursor overwrites its previous
// burst on every Next, and neither the window nor the flush interval
// divides the slot count.
func TestLockstepMixedSystems(t *testing.T) {
	const slots, flushEvery = 2*256 + 31, 100
	cell := streamCells(11)[0] // processing: single queues take work labels
	gen, err := traffic.NewMMPP(cell.mcfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := traffic.Record(gen, slots)
	build := func() []sim.System {
		var systems []sim.System
		for _, order := range []singleq.Order{singleq.OrderPQ, singleq.OrderFIFO} {
			for _, pushOut := range []bool{true, false} {
				q, err := singleq.New(singleq.Config{Buffer: cell.cfg.Buffer, MaxWork: cell.cfg.MaxLabel,
					Cores: cell.cfg.Ports * cell.cfg.Speedup, Order: order, PushOut: pushOut})
				if err != nil {
					t.Fatal(err)
				}
				systems = append(systems, q)
			}
		}
		optSys, err := sim.NewOptProxy(cell.cfg)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, optSys)
		for _, p := range cell.policies {
			systems = append(systems, core.MustNew(cell.cfg, p))
		}
		return systems
	}
	drainMax := sim.DrainBound(cell.cfg)
	var want []core.Stats
	for _, sys := range build() {
		st := soloRun(t, sys, tr, flushEvery, drainMax)
		if st.Transmitted == 0 {
			t.Fatalf("%s transmitted nothing: the differential would be vacuous", sys.Name())
		}
		want = append(want, st)
	}
	for _, workers := range []int{1, 4} {
		systems := build()
		got, err := sim.Lockstep(context.Background(), scribbleProvider{tr},
			sim.RunOptions{FlushEvery: flushEvery, DrainMax: drainMax}, workers, systems...)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers %d: %d Stats for %d systems", workers, len(got), len(want))
		}
		for i, sys := range systems {
			if got[i] != want[i] {
				t.Errorf("workers %d: %s: lockstep Stats %+v, solo %+v", workers, sys.Name(), got[i], want[i])
			}
		}
	}
}
