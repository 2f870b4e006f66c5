package opt

import (
	"fmt"
	"slices"

	"smbm/internal/core"
	"smbm/internal/pkt"
)

// Exact solver limits. They bound the per-slot state space, a (queue
// length, head-of-line residual) pair per port; the trace length only
// scales the cost linearly.
const (
	maxExactPorts  = 4
	maxExactBuffer = 8
	maxExactLabel  = 8
)

// Exact returns the largest objective any offline algorithm achieves on
// the per-slot arrival trace, including a full drain after the last
// slot: packets transmitted in the processing model, value transmitted
// in the value and combined models.
//
// Offline OPT never benefits from push-out (it can decline a packet it
// would later evict), and the final drain transmits every accepted
// packet, so a packet's reward is credited when it is accepted. The
// packets of one port differ only in reward: in the FIFO models they
// all need the port's work, in the value model unit work. A slot's only
// decision is therefore how many of each port's arrivals to accept (the
// highest-reward ones), with the total bounded by the free buffer, and
// the state it leaves is each port's queue length and head-of-line
// residual work. Exact is a forward dynamic program over slots on that
// state.
//
// Only small switches are supported: an error is returned beyond the
// port, buffer and label caps, and on any packet the engine refuses.
func Exact(cfg core.Config, trace [][]pkt.Packet) (int64, error) {
	if err := checkExact(cfg, trace); err != nil {
		return 0, err
	}
	d := exactDP{
		cfg:  cfg,
		unit: cfg.Model == core.ModelProcessing,
		cur:  map[exactState]int64{{}: 0},
		next: make(map[exactState]int64),
	}
	for i := range d.works[:cfg.Ports] {
		d.works[i] = 1
		if cfg.Model != core.ModelValue && cfg.PortWork != nil {
			d.works[i] = uint8(cfg.PortWork[i])
		}
	}
	for _, burst := range trace {
		d.step(burst)
	}
	var best int64
	//smb:nondet-ok the maximum over all states does not depend on their order
	for _, v := range d.cur {
		best = max(best, v)
	}
	return best, nil
}

// exactState holds port i's queue length at 2i and its head-of-line
// residual work at 2i+1 (0 when the queue is empty).
type exactState [2 * maxExactPorts]uint8

// exactDP carries Exact's frontier from slot to slot: cur maps every
// reachable state after a slot's transmission to the best reward
// credited on the way there.
type exactDP struct {
	cfg   core.Config
	works [maxExactPorts]uint8
	// unit credits every packet 1 (processing model) instead of its
	// value.
	unit bool
	// rewards[i] holds port i's arrival rewards this slot, and gain[i][c]
	// the total of its c largest.
	rewards   [maxExactPorts][]int64
	gain      [maxExactPorts][]int64
	cur, next map[exactState]int64
}

// step advances the frontier over one slot's arrivals and transmission.
func (d *exactDP) step(burst []pkt.Packet) {
	ports := d.cfg.Ports
	for i := range d.rewards[:ports] {
		d.rewards[i] = d.rewards[i][:0]
	}
	for _, p := range burst {
		r := int64(p.Value)
		if d.unit {
			r = 1
		}
		d.rewards[p.Port] = append(d.rewards[p.Port], r)
	}
	for i, rs := range d.rewards[:ports] {
		slices.Sort(rs)
		g := append(d.gain[i][:0], 0)
		for j := len(rs) - 1; j >= 0; j-- {
			g = append(g, g[len(g)-1]+rs[j])
		}
		d.gain[i] = g
	}
	clear(d.next)
	//smb:nondet-ok successors fold into next by maximum, which no order changes
	for st, v := range d.cur {
		free := d.cfg.Buffer
		for i := 0; i < ports; i++ {
			free -= int(st[2*i])
		}
		d.expand(st, 0, free, v)
	}
	d.cur, d.next = d.next, d.cur
}

// expand tries every count of port i's arrivals to accept, within the
// free buffer, recursing over the later ports; a complete choice is
// transmitted and folded into next.
func (d *exactDP) expand(st exactState, i, free int, v int64) {
	if i == d.cfg.Ports {
		st = d.transmit(st)
		if old, ok := d.next[st]; !ok || v > old {
			d.next[st] = v
		}
		return
	}
	g := d.gain[i]
	for c := 0; c < len(g) && c <= free; c++ {
		s := st
		if c > 0 && s[2*i] == 0 {
			s[2*i+1] = d.works[i]
		}
		s[2*i] += uint8(c)
		d.expand(s, i+1, free-c, v+g[c])
	}
}

// transmit applies one transmission phase as the engine does: each
// port's Speedup cycles go to its head-of-line packets in FIFO order,
// the cycles left by a finished packet carrying over to the next.
func (d *exactDP) transmit(st exactState) exactState {
	for i := 0; i < d.cfg.Ports; i++ {
		for budget := d.cfg.Speedup; budget > 0 && st[2*i] > 0; {
			use := min(budget, int(st[2*i+1]))
			budget -= use
			st[2*i+1] -= uint8(use)
			if st[2*i+1] > 0 {
				break
			}
			st[2*i]--
			if st[2*i] > 0 {
				st[2*i+1] = d.works[i]
			}
		}
	}
	return st
}

// checkExact refuses configurations over the caps and packets the
// engine's arrival check refuses.
func checkExact(cfg core.Config, trace [][]pkt.Packet) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Ports > maxExactPorts || cfg.Buffer > maxExactBuffer || cfg.MaxLabel > maxExactLabel {
		return fmt.Errorf("opt: instance too large for the exact solver (ports<=%d, B<=%d, k<=%d)",
			maxExactPorts, maxExactBuffer, maxExactLabel)
	}
	check := core.NewPacketCheck(cfg)
	for _, burst := range trace {
		for _, p := range burst {
			if err := check.Check(p); err != nil {
				return err
			}
		}
	}
	return nil
}
