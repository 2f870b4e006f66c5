package sim_test

import (
	"math/rand"
	"sort"
	"testing"

	"smbm/internal/core"
	"smbm/internal/opt"
	"smbm/internal/pkt"
	"smbm/internal/sim"
)

// naiveOpt is an independent reference for the OPT proxy: a plain
// slice of (value, residual) packets, fully re-sorted every slot. A
// processing packet counts as value 1 and a value packet as work 1,
// whatever its other label holds.
type naiveOpt struct {
	cfg   core.Config
	pkts  []naivePkt
	stats core.Stats
}

type naivePkt struct{ v, r int }

// denser reports whether a has strictly higher value per remaining
// cycle than b.
func (a naivePkt) denser(b naivePkt) bool { return a.v*b.r > b.v*a.r }

func newNaiveOpt(cfg core.Config) *naiveOpt { return &naiveOpt{cfg: cfg} }

func (n *naiveOpt) Occupancy() int    { return len(n.pkts) }
func (n *naiveOpt) Stats() core.Stats { return n.stats }
func (n *naiveOpt) Reset()            { n.pkts, n.stats = nil, core.Stats{} }

func (n *naiveOpt) arrive(p pkt.Packet) {
	a := naivePkt{p.Value, p.Work}
	switch n.cfg.Model {
	case core.ModelProcessing:
		a.v = 1
	case core.ModelValue:
		a.r = 1
	}
	n.stats.Arrived++
	if len(n.pkts) >= n.cfg.Buffer {
		// The sparsest packet: lowest density, then lowest value, then
		// largest residual.
		w := 0
		for i, q := range n.pkts {
			b := n.pkts[w]
			if b.denser(q) || !q.denser(b) && (q.v < b.v || q.v == b.v && q.r > b.r) {
				w = i
			}
		}
		if !a.denser(n.pkts[w]) {
			n.stats.Dropped++
			return
		}
		n.pkts = append(n.pkts[:w], n.pkts[w+1:]...)
		n.stats.PushedOut++
	}
	n.pkts = append(n.pkts, a)
	n.stats.Accepted++
	n.stats.MaxOccupancy = max(n.stats.MaxOccupancy, len(n.pkts))
}

func (n *naiveOpt) transmit() {
	sort.SliceStable(n.pkts, func(i, j int) bool {
		a, b := n.pkts[i], n.pkts[j]
		if a.denser(b) || b.denser(a) {
			return a.denser(b)
		}
		if a.v != b.v {
			return a.v > b.v
		}
		return a.r < b.r
	})
	budget := n.cfg.Ports * n.cfg.Speedup
	kept := n.pkts[:0]
	for i, q := range n.pkts {
		if i < budget {
			n.stats.CyclesUsed++
			if q.r--; q.r == 0 {
				n.stats.Transmitted++
				n.stats.TransmittedValue += int64(q.v)
				continue
			}
		}
		kept = append(kept, q)
	}
	n.pkts = kept
	n.stats.Slots++
}

// optVsNaive replays an op stream through sim.NewOptProxy and naiveOpt,
// comparing Stats and Occupancy after every op and after a final drain.
// Each op byte below 0xf0 is a packet whose port it picks and whose
// labels the following byte picks; 0xfb resets both, and every other
// byte ends the slot.
func optVsNaive(t *testing.T, cfg core.Config, ops []byte) {
	t.Helper()
	sys, err := sim.NewOptProxy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	proxy := sys.(*opt.SPQ)
	ref := newNaiveOpt(cfg)
	k := cfg.MaxLabel
	var burst []pkt.Packet
	for i := 0; i < len(ops); i++ {
		arg := func() int {
			if i++; i < len(ops) {
				return int(ops[i])
			}
			return 0
		}
		switch b := ops[i]; b {
		case 0xfb:
			sys.Reset()
			ref.Reset()
		default:
			if b < 0xf0 {
				x := arg()
				burst = append(burst, pkt.Packet{Port: int(b) % cfg.Ports, Work: 1 + x%k, Value: 1 + x/k%k})
				continue
			}
			if err := sys.Step(burst); err != nil {
				t.Fatal(err)
			}
			for _, p := range burst {
				ref.arrive(p)
			}
			ref.transmit()
			burst = burst[:0]
		}
		if got, want := sys.Stats(), ref.Stats(); got != want {
			t.Fatalf("op %d: stats diverged\n proxy: %+v\n naive: %+v", i, got, want)
		}
		if got, want := proxy.Occupancy(), ref.Occupancy(); got != want {
			t.Fatalf("op %d: occupancy %d, naive %d", i, got, want)
		}
	}
	drained := sys.Drain()
	var want int
	for ; ref.Occupancy() > 0; want++ {
		ref.transmit()
	}
	if got, wantSt := sys.Stats(), ref.Stats(); drained != want || got != wantSt {
		t.Fatalf("drain: %d slots, naive %d\n proxy: %+v\n naive: %+v", drained, want, got, wantSt)
	}
}

// optFuzzCfg derives a small switch configuration of the given model
// from one shape byte.
func optFuzzCfg(model, shape uint8) core.Config {
	ports := 1 + int(shape)%4
	return core.Config{
		Model:    []core.Model{core.ModelProcessing, core.ModelValue}[model%2],
		Ports:    ports,
		Buffer:   ports + int(shape/4)%6,
		MaxLabel: 1 + int(shape/24)%5,
		Speedup:  1 + int(shape/120)%2,
	}
}

// TestOptProxyMatchesNaive drives the OPT proxy of every model against
// naiveOpt over random configurations and op streams: bursts of packets
// carrying both labels, interleaved with resets.
func TestOptProxyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for n := 0; n < 1500; n++ {
		cfg := optFuzzCfg(uint8(n), uint8(rng.Intn(256)))
		var ops []byte
		for slot := 0; slot < 200; slot++ {
			if rng.Intn(100) == 0 {
				ops = append(ops, 0xfb)
			}
			for i := rng.Intn(2 * cfg.Buffer); i > 0; i-- {
				ops = append(ops, byte(rng.Intn(0xf0)), byte(rng.Intn(256)))
			}
			ops = append(ops, 0xff)
		}
		optVsNaive(t, cfg, ops)
	}
}

// FuzzOptProxyVsNaive lets the fuzz engine pick the model, the shape
// and the op stream of optVsNaive.
func FuzzOptProxyVsNaive(f *testing.F) {
	f.Add(uint8(0), uint8(7), []byte{3, 9, 2, 1, 0xff, 1, 4, 0xf8, 0, 0, 0xff, 0xf9, 0xff})
	f.Add(uint8(1), uint8(33), []byte{1, 17, 2, 40, 5, 3, 0xfa, 2, 0xff, 6, 6, 0xff, 0xfb, 0xff})
	f.Add(uint8(2), uint8(130), []byte{0, 22, 1, 5, 2, 77, 3, 12, 0xff, 0xf8, 1, 1, 4, 9, 0xff})
	f.Add(uint8(2), uint8(71), []byte{5, 24, 5, 0, 5, 24, 0xff, 0xfa, 1, 7, 4, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, model, shape uint8, ops []byte) {
		optVsNaive(t, optFuzzCfg(model, shape), ops)
	})
}
