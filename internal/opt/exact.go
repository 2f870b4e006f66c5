package opt

import (
	"encoding/binary"
	"fmt"
	"slices"

	"smbm/internal/core"
	"smbm/internal/pkt"
)

// exactFrontier bounds the number of states Exact keeps after a slot,
// and so its memory: about 100 bytes per state, under 30 MB at the
// bound. The trace length only scales the time linearly.
const exactFrontier = 1 << 18

// Exact returns the largest objective any offline algorithm achieves on
// the per-slot arrival trace, including a full drain after the last
// slot: packets transmitted in the processing model, value transmitted
// in the value model.
//
// Offline OPT never benefits from push-out (it can decline a packet it
// would later evict), and the final drain transmits every accepted
// packet, so a packet's reward is credited when it is accepted. The
// packets of one port differ only in reward: in the processing model
// they all need the port's work w, in the value model unit work. A
// slot's only decision is therefore how many of each port's arrivals to
// accept (the highest-reward ones), with the total bounded by the free
// buffer.
// The state it leaves is each port's remaining work W: accepting c
// packets adds c·w, a transmission phase takes min(C, W) off (the
// engine carries a finished packet's leftover cycles over to the next
// one), and the port holds ⌈W/w⌉ packets. Exact is a forward dynamic
// program over slots on that state.
//
// An error is returned on any packet the engine refuses, and when more
// than exactFrontier states are reachable after some slot; the error
// names that slot.
func Exact(cfg core.Config, trace [][]pkt.Packet) (int64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	d := exactDP{
		cfg:   cfg,
		unit:  cfg.Model == core.ModelProcessing,
		works: cfg.PortWork,
		rem:   make([]int, cfg.Ports),
		gain:  make([][]int64, cfg.Ports),
		cur:   map[string]int64{string(make([]byte, cfg.Ports)): 0},
		next:  make(map[string]int64),
	}
	if d.works == nil {
		d.works = core.UniformWorks(cfg.Ports, 1)
	}
	check := core.NewPacketCheck(cfg)
	for slot, burst := range trace {
		for _, p := range burst {
			if err := check.Check(p); err != nil {
				return 0, err
			}
		}
		if !d.step(burst) {
			return 0, fmt.Errorf("opt: exact solver frontier exceeds %d states at slot %d", exactFrontier, slot)
		}
	}
	var best int64
	//smb:nondet-ok the maximum over all states does not depend on their order
	for _, v := range d.cur {
		best = max(best, v)
	}
	return best, nil
}

// exactDP carries Exact's frontier from slot to slot: cur maps every
// reachable state after a slot's transmission to the best reward
// credited on the way there. A state's key is its ports' remaining
// work, as consecutive uvarints.
type exactDP struct {
	cfg   core.Config
	works []int
	// unit credits every packet 1 (processing model) instead of its
	// value.
	unit bool
	// rem is the remaining work of the state being expanded, and key
	// its successor's key under construction.
	rem []int
	key []byte
	// gain[i][c] is the total reward of port i's c best arrivals this
	// slot.
	gain      [][]int64
	cur, next map[string]int64
}

// step advances the frontier over one slot's arrivals and transmission.
// It reports false when the next frontier would exceed exactFrontier.
func (d *exactDP) step(burst []pkt.Packet) bool {
	for i := range d.gain {
		d.gain[i] = append(d.gain[i][:0], 0)
	}
	for _, p := range burst {
		r := int64(p.Value)
		if d.unit {
			r = 1
		}
		d.gain[p.Port] = append(d.gain[p.Port], r)
	}
	for _, g := range d.gain {
		slices.Sort(g[1:])
		slices.Reverse(g[1:])
		for c := 1; c < len(g); c++ {
			g[c] += g[c-1]
		}
	}
	clear(d.next)
	//smb:nondet-ok successors fold into next by maximum, which no order changes
	for st, v := range d.cur {
		free := d.cfg.Buffer
		for i := range d.rem {
			x, n := binary.Uvarint([]byte(st))
			st = st[n:]
			d.rem[i] = int(x)
			free -= (d.rem[i] + d.works[i] - 1) / d.works[i]
		}
		if !d.expand(0, free, v) {
			return false
		}
	}
	d.cur, d.next = d.next, d.cur
	return true
}

// expand tries every count of port i's arrivals to accept, within the
// free buffer, appending the port's remaining work after the slot's
// transmission to the key and recursing over the later ports; a
// complete key is folded into next.
func (d *exactDP) expand(i, free int, v int64) bool {
	if i == len(d.rem) {
		old, ok := d.next[string(d.key)]
		switch {
		case !ok && len(d.next) == exactFrontier:
			return false
		case !ok || v > old:
			d.next[string(d.key)] = v
		}
		return true
	}
	g, at := d.gain[i], len(d.key)
	for c := 0; c < len(g) && c <= free; c++ {
		w := d.rem[i] + c*d.works[i]
		d.key = binary.AppendUvarint(d.key[:at], uint64(w-min(w, d.cfg.Speedup)))
		if !d.expand(i+1, free-c, v+g[c]) {
			return false
		}
	}
	d.key = d.key[:at]
	return true
}
