// Package core implements the shared-memory switch model of the paper for
// both of its generalizations:
//
//   - the heterogeneous processing model (Section III): unit-sized packets
//     with an output port and required work, FIFO output queues, all
//     packets of a port sharing the port's work requirement;
//   - the heterogeneous value model (Section IV): unit-work packets with an
//     output port and intrinsic value, priority-queue output queues.
//
// Time is slotted. Each slot has an arrival phase, in which a buffer
// management policy decides per arriving packet whether to admit it and
// whether to push out an already-buffered packet, and a transmission
// phase, in which every non-empty output queue receives C processing
// cycles (processing model) or transmits up to C packets (value model).
//
// The engine owns all mutation; policies are pure functions from a
// read-only View and an arriving packet to a Decision. This keeps the
// model's invariants (occupancy bound, FIFO order, conservation) enforced
// in one place and makes policies independently testable.
package core

import (
	"errors"
	"fmt"

	"smbm/internal/pkt"
)

// Model selects which of the paper's two generalizations a Switch
// simulates.
type Model int

// Enum of switch models. Values start at 1 so the zero value is invalid
// and cannot be used by accident.
const (
	// ModelProcessing is the Section III model: heterogeneous required
	// work, unit values, FIFO queues, throughput = packets transmitted.
	ModelProcessing Model = iota + 1
	// ModelValue is the Section IV model: heterogeneous values, unit
	// work, priority queues, throughput = total value transmitted.
	ModelValue
	// ModelCombined is reserved: it named a combined work×value model
	// that has been retired, and Config.Validate refuses it. Its only
	// user is benchsuite/layers.go, which still names it.
	ModelCombined
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelProcessing:
		return "processing"
	case ModelValue:
		return "value"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Config describes a shared-memory switch instance.
type Config struct {
	// Model selects the processing or the value generalization.
	Model Model
	// Ports is n, the number of output ports (= output queues).
	Ports int
	// Buffer is B, the shared buffer size in packets. The paper assumes
	// B >= n.
	Buffer int
	// MaxLabel is k: the upper bound on per-packet required work
	// (processing model) or intrinsic value (value model).
	MaxLabel int
	// Speedup is C, the number of processing cores attached to every
	// output queue. C cycles are applied per queue per slot (processing
	// model); C packets are transmitted per queue per slot (value model).
	Speedup int
	// PortWork gives w_i, the required work of packets destined to port
	// i (processing model; the paper's "configuration").
	// A nil slice means unit work on every port, which recovers the
	// classical shared-memory switch of Aiello et al. Must be
	// non-decreasing: the paper sorts queues by processing requirement.
	PortWork []int
	// CheckInvariants enables per-slot internal consistency checks.
	// Expensive; intended for tests.
	CheckInvariants bool
}

// DrainCeiling is the absolute per-drain slot cap, applied when no
// configuration-derived bound (Config.DrainBound) tightens it. Any
// correct switch empties in at most B·MaxLabel slots, orders of
// magnitude below this cap, so hitting it means a wedged system rather
// than a slow one.
const DrainCeiling = 1 << 20

// drainSlack pads the configuration-derived drain bound so boundary
// effects (a head-of-line packet mid-service at the drain's start) can
// never trip the bound on a correct system.
const drainSlack = 64

// DrainBound returns the drain-slot budget implied by the
// configuration: a full buffer of B packets, each needing at most
// MaxLabel work, empties in at most B·MaxLabel slots even on a single
// unit-speed core, so the bound is B·MaxLabel plus slack. It turns a
// wedged system into a prompt error instead of a 2²⁰-slot spin, and
// can never change a correct drain's outcome. Degenerate
// configurations (a zero or overflowing product) get DrainCeiling.
func (c Config) DrainBound() int {
	b := c.Buffer * c.MaxLabel
	if c.Buffer > 0 && c.MaxLabel > 0 && b/c.Buffer != c.MaxLabel {
		return DrainCeiling // product overflowed
	}
	if b <= 0 || b > DrainCeiling-drainSlack {
		return DrainCeiling
	}
	return b + drainSlack
}

// ContiguousWorks returns the paper's canonical lower-bound configuration:
// k ports with required work 1..k ("contiguous case").
func ContiguousWorks(k int) []int {
	works := make([]int, k)
	for i := range works {
		works[i] = i + 1
	}
	return works
}

// UniformWorks returns n ports that all require work w.
func UniformWorks(n, w int) []int {
	works := make([]int, n)
	for i := range works {
		works[i] = w
	}
	return works
}

// ErrBadConfig is wrapped by all Config validation failures.
var ErrBadConfig = errors.New("core: invalid config")

// Validate checks internal consistency of the configuration.
func (c Config) Validate() error {
	switch {
	case c.Model != ModelProcessing && c.Model != ModelValue:
		return fmt.Errorf("%w: unknown model %d", ErrBadConfig, int(c.Model))
	case c.Ports < 1:
		return fmt.Errorf("%w: ports %d < 1", ErrBadConfig, c.Ports)
	case c.Buffer < c.Ports:
		return fmt.Errorf("%w: buffer %d < ports %d (paper assumes B >= n)", ErrBadConfig, c.Buffer, c.Ports)
	case c.MaxLabel < 1:
		return fmt.Errorf("%w: max label %d < 1", ErrBadConfig, c.MaxLabel)
	case c.Speedup < 1:
		return fmt.Errorf("%w: speedup %d < 1", ErrBadConfig, c.Speedup)
	}
	if c.Model == ModelValue {
		if c.PortWork != nil {
			return fmt.Errorf("%w: PortWork is a processing-model parameter", ErrBadConfig)
		}
		return nil
	}
	if c.PortWork == nil {
		return nil
	}
	if len(c.PortWork) != c.Ports {
		return fmt.Errorf("%w: len(PortWork)=%d != ports %d", ErrBadConfig, len(c.PortWork), c.Ports)
	}
	prev := 1
	for i, w := range c.PortWork {
		if w < 1 || w > c.MaxLabel {
			return fmt.Errorf("%w: PortWork[%d]=%d out of [1,%d]", ErrBadConfig, i, w, c.MaxLabel)
		}
		if w < prev {
			return fmt.Errorf("%w: PortWork must be non-decreasing, got %d after %d", ErrBadConfig, w, prev)
		}
		prev = w
	}
	return nil
}

// portWork returns the effective per-port work slice (unit work when
// PortWork is nil).
func (c Config) portWork() []int {
	if c.Model == ModelValue || c.PortWork == nil {
		return UniformWorks(c.Ports, 1)
	}
	return c.PortWork
}

// PacketCheck is the engine's arrival validation for one configuration,
// shared by Switch.ArriveBatch and the sharded runtime's producer side:
// a packet is accepted when its port, work and value are in range
// (pkt.Validate) and, in the processing model, its work matches its port's
// configured work. Build one with NewPacketCheck.
type PacketCheck struct {
	ports    uint
	maxLabel uint
	fifo     bool
	works    []int
}

// NewPacketCheck returns cfg's packet check. cfg must be valid.
func NewPacketCheck(cfg Config) PacketCheck {
	return PacketCheck{
		ports:    uint(cfg.Ports),
		maxLabel: uint(cfg.MaxLabel),
		fifo:     cfg.Model != ModelValue,
		works:    cfg.portWork(),
	}
}

// ok reports whether p passes the check, in one fused branch: each
// unsigned compare folds a range's lower and upper bound into one.
//
//smb:hotpath
func (c *PacketCheck) ok(p pkt.Packet) bool {
	return uint(p.Port) < c.ports && uint(p.Work-1) < c.maxLabel &&
		uint(p.Value-1) < c.maxLabel && (!c.fifo || p.Work == c.works[p.Port])
}

// Check returns nil when p passes the check, and otherwise the reason:
// pkt.Validate's range error, or the work mismatch.
//
//smb:hotpath
func (c *PacketCheck) Check(p pkt.Packet) error {
	if c.ok(p) {
		return nil
	}
	//smb:alloc-ok validation failure path, never taken by well-formed input
	return c.reject(p)
}

// reject explains why p failed ok.
func (c *PacketCheck) reject(p pkt.Packet) error {
	if err := p.Validate(int(c.ports), int(c.maxLabel)); err != nil {
		return err
	}
	return fmt.Errorf("core: packet work %d does not match port %d configuration %d", p.Work, p.Port, c.works[p.Port])
}
