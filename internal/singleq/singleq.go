// Package singleq implements the single-queue architecture the paper's
// introduction contrasts with the shared-memory switch (Fig. 1, top):
// one queue over the whole buffer, and a pool of cores each of which can
// process any traffic type. Cores run packets to completion ("run-for-
// completion" — no rescheduling), so the architectural choice is which
// waiting packet a freed core picks:
//
//   - OrderPQ: smallest required work first — the priority-queuing
//     policy with push-out that is throughput-optimal in the
//     single-queue model [Keslassy et al.], at the price of starving
//     expensive classes and of processing-order hardware;
//   - OrderFIFO: arrival order — the simple hardware, whose greedy
//     non-push-out variant is k-competitive.
//
// The package exists to reproduce the paper's motivation quantitatively:
// cmd/smbsim -experiment arch compares these against the shared-memory
// switch under LWD on identical traffic, reporting both throughput and
// per-class starvation.
package singleq

import (
	"fmt"

	"smbm/internal/core"
	"smbm/internal/deque"
	"smbm/internal/pkt"
)

// Order selects which waiting packet a freed core takes.
type Order int

// Processing orders.
const (
	// OrderPQ serves the smallest required work first.
	OrderPQ Order = iota + 1
	// OrderFIFO serves in arrival order.
	OrderFIFO
)

// String implements fmt.Stringer.
func (o Order) String() string {
	switch o {
	case OrderPQ:
		return "PQ"
	case OrderFIFO:
		return "FIFO"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Config describes a single-queue switch.
type Config struct {
	// Buffer is B, in packets (waiting + in service).
	Buffer int
	// MaxWork is k, the bound on per-packet required work.
	MaxWork int
	// Cores is the number of run-to-completion cores.
	Cores int
	// Order selects the processing order.
	Order Order
	// PushOut enables evicting the worst waiting packet for a better
	// arrival when the buffer is full (PQ: largest work; FIFO:
	// youngest-of-larger-work).
	PushOut bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Buffer < 1:
		return fmt.Errorf("singleq: buffer %d < 1", c.Buffer)
	case c.MaxWork < 1:
		return fmt.Errorf("singleq: max work %d < 1", c.MaxWork)
	case c.MaxWork > 255:
		return fmt.Errorf("singleq: max work %d exceeds encoding limit 255", c.MaxWork)
	case c.Cores < 1:
		return fmt.Errorf("singleq: cores %d < 1", c.Cores)
	case c.Order != OrderPQ && c.Order != OrderFIFO:
		return fmt.Errorf("singleq: unknown order %d", int(c.Order))
	}
	return nil
}

// job is an in-service packet.
type job struct {
	residual int
	class    int
	arrived  int64
}

// Switch is a single-queue switch instance. It implements the
// sim.System contract.
type Switch struct {
	cfg  Config
	slot int64

	// waiting packets: per-class FIFO of arrival slots. FIFO order
	// additionally keeps the global arrival order in fifo (class
	// encoded alongside).
	byClass []deque.Deque // index 1..MaxWork
	fifo    deque.Deque   // encoded arrival<<8 | class
	waiting int

	cores []job // fixed length Cores; residual 0 = idle core

	stats core.Stats
	// perClass holds per-work-class counters (index = work; 0 unused):
	// the starvation evidence the paper's shared-memory design responds
	// to. A class plays the part of a core.Switch port.
	perClass []core.PortCounters
}

// New builds a single-queue switch.
func New(cfg Config) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Switch{
		cfg:      cfg,
		byClass:  make([]deque.Deque, cfg.MaxWork+1),
		cores:    make([]job, cfg.Cores),
		perClass: make([]core.PortCounters, cfg.MaxWork+1),
	}, nil
}

// Name implements the sim.System contract.
func (s *Switch) Name() string {
	mode := "greedy"
	if s.cfg.PushOut {
		mode = "pushout"
	}
	return fmt.Sprintf("1Q-%s-%s", s.cfg.Order, mode)
}

// Stats returns the accumulated counters.
func (s *Switch) Stats() core.Stats { return s.stats }

// PerClass returns a copy of the per-work-class counters, lightest
// class first (index w-1 for work w).
func (s *Switch) PerClass() []core.PortCounters {
	return append([]core.PortCounters(nil), s.perClass[1:]...)
}

// Occupancy returns waiting plus in-service packets.
func (s *Switch) Occupancy() int {
	occ := s.waiting
	for _, j := range s.cores {
		if j.residual > 0 {
			occ++
		}
	}
	return occ
}

const encShift = 8

func encode(arrived int64, class int) int64 { return arrived<<encShift | int64(class) }

func decode(v int64) (arrived int64, class int) { return v >> encShift, int(v & 0xff) }

// Arrive admits or rejects one packet. Port labels are ignored: there is
// only one queue.
func (s *Switch) Arrive(p pkt.Packet) error {
	if p.Work < 1 || p.Work > s.cfg.MaxWork {
		return fmt.Errorf("singleq: work %d out of [1,%d]", p.Work, s.cfg.MaxWork)
	}
	s.stats.Arrived++
	s.perClass[p.Work].Arrived++
	if s.Occupancy() >= s.cfg.Buffer {
		if !s.cfg.PushOut || !s.evictFor(p.Work) {
			s.stats.Dropped++
			s.perClass[p.Work].Dropped++
			return nil
		}
	}
	s.byClass[p.Work].PushBack(s.slot)
	if s.cfg.Order == OrderFIFO {
		s.fifo.PushBack(encode(s.slot, p.Work))
	}
	s.waiting++
	s.stats.Accepted++
	s.perClass[p.Work].Accepted++
	if occ := s.Occupancy(); occ > s.stats.MaxOccupancy {
		s.stats.MaxOccupancy = occ
	}
	return nil
}

// evictFor removes the worst *waiting* packet strictly worse than the
// arriving class (in-service packets run to completion and cannot be
// evicted). Returns false when no such victim exists.
func (s *Switch) evictFor(class int) bool {
	victim := 0
	for w := s.cfg.MaxWork; w > class; w-- {
		if s.byClass[w].Len() > 0 {
			victim = w
			break
		}
	}
	if victim == 0 {
		return false
	}
	// Evict the youngest packet of the victim class; drop the matching
	// FIFO entry lazily (see fill).
	s.byClass[victim].PopBack()
	s.waiting--
	s.stats.PushedOut++
	s.perClass[victim].PushedOut++
	return true
}

// Transmit runs one transmission phase: fill idle cores from the waiting
// pool, then give every in-service packet one cycle; completions leave.
func (s *Switch) Transmit() {
	s.fill()
	for i := range s.cores {
		j := &s.cores[i]
		if j.residual == 0 {
			continue
		}
		j.residual--
		s.stats.CyclesUsed++
		if j.residual > 0 {
			continue
		}
		s.stats.Transmitted++
		s.stats.TransmittedValue++
		s.stats.TransmittedWork += int64(j.class)
		latency := s.slot - j.arrived
		s.stats.LatencySlots += latency
		cc := &s.perClass[j.class]
		cc.Transmitted++
		cc.TransmittedValue++
		cc.LatencySlots += latency
		if latency > cc.MaxLatency {
			cc.MaxLatency = latency
		}
	}
	s.slot++
	s.stats.Slots++
}

// fill assigns waiting packets to idle cores per the configured order.
func (s *Switch) fill() {
	for i := range s.cores {
		if s.cores[i].residual > 0 {
			continue
		}
		arrived, class, ok := s.next()
		if !ok {
			return
		}
		s.cores[i] = job{residual: class, class: class, arrived: arrived}
	}
}

// next pops the next waiting packet per the order, or ok=false.
func (s *Switch) next() (arrived int64, class int, ok bool) {
	if s.waiting == 0 {
		return 0, 0, false
	}
	switch s.cfg.Order {
	case OrderPQ:
		for w := 1; w <= s.cfg.MaxWork; w++ {
			if s.byClass[w].Len() > 0 {
				s.waiting--
				return s.byClass[w].PopFront(), w, true
			}
		}
		return 0, 0, false
	default: // OrderFIFO
		// Skip FIFO entries whose packet was pushed out (lazy
		// deletion): an entry is live only while its class deque still
		// holds its arrival slot at the front.
		for s.fifo.Len() > 0 {
			arrived, class := decode(s.fifo.PopFront())
			if s.byClass[class].Len() > 0 && s.byClass[class].Front() == arrived {
				s.byClass[class].PopFront()
				s.waiting--
				return arrived, class, true
			}
		}
		return 0, 0, false
	}
}

// Step runs one slot: arrivals then transmission.
func (s *Switch) Step(arrivals []pkt.Packet) error {
	for _, p := range arrivals {
		if err := s.Arrive(p); err != nil {
			return err
		}
	}
	s.Transmit()
	return nil
}

// Drain transmits with no arrivals until empty, returning slots used.
func (s *Switch) Drain() int {
	var slots int
	for s.Occupancy() > 0 {
		s.Transmit()
		slots++
	}
	return slots
}

// Reset restores the initial empty state.
func (s *Switch) Reset() {
	s.slot = 0
	s.waiting = 0
	s.fifo.Clear()
	for i := range s.byClass {
		s.byClass[i].Clear()
	}
	for i := range s.cores {
		s.cores[i] = job{}
	}
	s.stats = core.Stats{}
	for i := range s.perClass {
		s.perClass[i] = core.PortCounters{}
	}
}
