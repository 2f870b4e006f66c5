// Package opt provides the reference algorithms the paper compares
// against:
//
//   - SPQ: the simulation study's OPT proxy — a single priority queue
//     over the whole buffer with n·C cores, processing densest-first
//     (value per remaining cycle) with greedy push-out admission. In the
//     processing model that is smallest-work-first, in the value model
//     largest-value-first. It is a baseline, not an upper bound on the
//     shared-memory OPT: with several cores smallest-first service is
//     suboptimal, and TestSPQProxyIsNotAStrictUpperBound pins an
//     instance the exact optimum wins.
//   - Exact: the true offline optimum of both models (any trace
//     length), a slot-level dynamic program over each port's remaining
//     work, bounded by one budget on the number of states; tests and
//     the worst-case hunter use it to check competitive bounds as
//     executable invariants.
package opt

import (
	"math"

	"smbm/internal/core"
	"smbm/internal/pkt"
)

// SPQ is the OPT proxy of both models: one shared priority queue over
// the whole buffer with n·C cores, ordered by value density — intrinsic
// value per remaining processing cycle. Each slot every core applies one
// cycle to a distinct densest packet, crediting the packet's value on
// completion; push-out admission evicts a least-dense packet when a
// strictly denser one arrives to a full buffer.
//
// The model picks the label a packet is ordered by: a processing packet
// counts as value 1 and a value packet as work 1, whatever its other
// field holds. Density order is then smallest residual first in the
// processing model and largest value first in the value model.
//
// State is a histogram over k cells laid out densest first: cell i
// holds the packets of residual i+1 (processing model) or of value k−i
// (value model), so a transmission phase costs O(k + cores) regardless
// of occupancy. In one dimension no two cells share a density, so the
// cell index is the density rank.
type SPQ struct {
	cfg core.Config
	// fifo is true in the processing model, whose cycles move a packet
	// one cell closer to completion; a value-model packet completes on
	// its one cycle.
	fifo  bool
	cnt   []int64 // cnt[i] = buffered packets in cell i
	occ   int
	hi    int // upper bound on the last non-empty cell (lazily tightened)
	stats core.Stats
}

// NewSPQ builds the proxy for the given switch configuration.
func NewSPQ(cfg core.Config) (*SPQ, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SPQ{
		cfg:  cfg,
		fifo: cfg.Model == core.ModelProcessing,
		cnt:  make([]int64, cfg.MaxLabel),
	}, nil
}

// cell returns the histogram cell of packet p.
func (s *SPQ) cell(p pkt.Packet) int {
	if s.fifo {
		return p.Work - 1
	}
	return s.cfg.MaxLabel - p.Value
}

// value returns the value a packet completing from cell i credits.
func (s *SPQ) value(i int) int64 {
	if s.fifo {
		return 1
	}
	return int64(s.cfg.MaxLabel - i)
}

// Name implements the sim.System contract.
func (s *SPQ) Name() string { return "OPT(SPQ)" }

// Stats returns accumulated counters. TransmittedWork and latency are not
// tracked by the proxy and stay zero.
func (s *SPQ) Stats() core.Stats { return s.stats }

// Occupancy returns the buffered packet count.
func (s *SPQ) Occupancy() int { return s.occ }

// Arrive admits p greedily with push-out of a least-dense packet.
func (s *SPQ) Arrive(p pkt.Packet) error {
	if err := p.Validate(s.cfg.Ports, s.cfg.MaxLabel); err != nil {
		return err
	}
	s.stats.Arrived++
	c := s.cell(p)
	if s.occ >= s.cfg.Buffer {
		// The sparsest packet sits in the last non-empty cell. Cells
		// above hi are empty by invariant, so the scan starts there and
		// tightens hi for the next congested arrival.
		w := s.hi
		for s.cnt[w] == 0 {
			w--
		}
		s.hi = w
		// Evict only for a strictly denser arrival.
		if c >= w {
			s.stats.Dropped++
			return nil
		}
		s.cnt[w]--
		s.occ--
		s.stats.PushedOut++
	}
	s.cnt[c]++
	s.hi = max(s.hi, c)
	s.occ++
	s.stats.Accepted++
	s.stats.MaxOccupancy = max(s.stats.MaxOccupancy, s.occ)
	return nil
}

// Step runs one slot: arrivals then transmission.
func (s *SPQ) Step(arrivals []pkt.Packet) error {
	for _, p := range arrivals {
		if err := s.Arrive(p); err != nil {
			return err
		}
	}
	s.Transmit()
	return nil
}

// Transmit applies one cycle to each of the min(occupancy, cores)
// densest packets, crediting the values of the packets that complete.
func (s *SPQ) Transmit() {
	budget := int64(s.cfg.Ports * s.cfg.Speedup)
	// Cycles only move packets to earlier cells, so hi stays a valid
	// upper bound and the scan never visits the empty cells above it.
	for i := 0; i <= s.hi && budget > 0; i++ {
		n := min(s.cnt[i], budget)
		if n == 0 {
			continue
		}
		budget -= n
		s.cnt[i] -= n
		s.stats.CyclesUsed += n
		if s.fifo && i > 0 {
			// Cell i-1 is denser than i, so it was already passed this
			// slot: the moved packets cannot receive a second cycle now.
			s.cnt[i-1] += n
			continue
		}
		s.occ -= int(n)
		s.stats.Transmitted += n
		s.stats.TransmittedValue += n * s.value(i)
	}
	s.stats.Slots++
}

// Drain transmits with no arrivals until empty, returning slots used.
func (s *SPQ) Drain() int {
	slots, _ := s.DrainMax(math.MaxInt)
	return slots
}

// DrainMax is Drain bounded to at most max transmission phases,
// returning the slots used and whether the proxy actually emptied.
func (s *SPQ) DrainMax(max int) (int, bool) {
	var slots int
	for s.occ > 0 {
		if slots >= max {
			return slots, false
		}
		s.Transmit()
		slots++
	}
	return slots, true
}

// Reset clears all buffered packets and statistics.
func (s *SPQ) Reset() {
	clear(s.cnt)
	s.occ = 0
	s.hi = 0
	s.stats = core.Stats{}
}
