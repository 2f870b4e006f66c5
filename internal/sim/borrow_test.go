package sim_test

import (
	"fmt"
	"sync"
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/sim"
	"smbm/internal/singleq"
	"smbm/internal/traffic"
)

// burstGuard wraps a System and fails its Step when the wrapped system
// wrote to the burst it was lent.
type burstGuard struct {
	sim.System
	lent []pkt.Packet
}

// guard wraps sys in a burstGuard.
func guard(sys sim.System) sim.System { return &burstGuard{System: sys} }

// Step implements sim.System.
func (g *burstGuard) Step(arrivals []pkt.Packet) error {
	g.lent = append(g.lent[:0], arrivals...)
	if err := g.System.Step(arrivals); err != nil {
		return err
	}
	for i := range arrivals {
		if arrivals[i] != g.lent[i] {
			return fmt.Errorf("%s wrote packet %d of a lent burst: %+v, lent %+v", g.Name(), i, arrivals[i], g.lent[i])
		}
	}
	return nil
}

// DrainMax implements sim.BoundedDrainer.
func (g *burstGuard) DrainMax(max int) (int, bool) {
	if bd, ok := g.System.(sim.BoundedDrainer); ok {
		return bd.DrainMax(max)
	}
	return g.Drain(), true
}

// TestReplaysLeaveMemoizedTraceIntact pins the read side of the
// borrowed-burst contract: a run lends each slot of its window to
// every System in place, one after another, so no System may write to
// a burst. One recorded MMPP cell per model runs as a traffic.Trace
// through every System a cell can hold — core.Switch under every
// roster policy, the OPT proxy, and singleq.Switch — each behind a
// guard that compares every lent burst after Step with a copy taken
// before it, at Parallelism 1 and 4, and with the two runs concurrent
// on the shared trace. After every run the trace must
// equal, packet for packet, a deep copy taken before the runs.
func TestReplaysLeaveMemoizedTraceIntact(t *testing.T) {
	const slots = 300
	cells := streamCells(11)
	// The value cell takes by-port labels so its roster can include
	// NHSTV: the two rosters then hold all 18 policies.
	val := &cells[1]
	val.cfg.MaxLabel, val.mcfg.MaxLabel, val.mcfg.Label = val.cfg.Ports, val.cfg.Ports, traffic.LabelValueByPort
	rosters := map[string][]core.Policy{
		"processing": append(policy.ForProcessing(), policy.Experimental()...),
		"value":      append(policy.ForValueByPort(), policy.ValueExperimental()...),
	}
	if n := len(rosters["processing"]) + len(rosters["value"]); n != 18 {
		t.Fatalf("rosters hold %d policies, want 18", n)
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			gen, err := traffic.NewMMPP(cell.mcfg)
			if err != nil {
				t.Fatal(err)
			}
			// Record copies every burst, so want shares no slot with tr.
			tr := traffic.Record(gen, slots)
			want := traffic.Record(tr.Replay(), slots)

			intact := func(after string) {
				t.Helper()
				for s := range want {
					if len(tr[s]) != len(want[s]) {
						t.Fatalf("after %s: slot %d: trace holds %d packets, recorded %d", after, s, len(tr[s]), len(want[s]))
					}
					for i := range tr[s] {
						if tr[s][i] != want[s][i] {
							t.Fatalf("after %s: slot %d packet %d: trace holds %+v, recorded %+v", after, s, i, tr[s][i], want[s][i])
						}
					}
				}
			}

			sq := singleq.Config{Buffer: cell.cfg.Buffer, MaxWork: cell.cfg.MaxLabel, Cores: 1, Order: singleq.OrderPQ, PushOut: true}
			guarded := func(sys sim.System) (sim.System, error) { return guard(sys), nil }
			for _, par := range []int{1, 4} {
				runs := []struct {
					name string
					run  func() error
				}{
					{"OPT proxy and roster", func() error {
						_, err := sim.Instance{Cfg: cell.cfg, Policies: rosters[cell.name], Provider: tr, FlushEvery: 64, Parallelism: par, Wrap: guarded}.Run()
						return err
					}},
					{"singleq", func() error {
						sw, err := singleq.New(sq)
						if err != nil {
							return err
						}
						_, err = sim.RunTrace(guard(sw), tr, 64)
						return err
					}},
				}
				if par == 1 {
					// One System at a time, each checked on its own: a
					// write that a second replay would undo cannot hide.
					for _, r := range runs {
						if err := r.run(); err != nil {
							t.Fatalf("%s: %v", r.name, err)
						}
						intact(r.name)
					}
					continue
				}
				errs := make([]error, len(runs))
				var wg sync.WaitGroup
				for i, r := range runs {
					wg.Add(1)
					go func(i int, run func() error) {
						defer wg.Done()
						errs[i] = run()
					}(i, r.run)
				}
				wg.Wait()
				for i, err := range errs {
					if err != nil {
						t.Fatalf("%s at parallelism %d: %v", runs[i].name, par, err)
					}
				}
				intact("concurrent replays")
			}
		})
	}
}
