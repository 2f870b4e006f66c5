// Package pkt defines the unit-sized packet model shared by both switch
// models of the paper: packets labeled with an output port and either a
// required amount of processing work (Section III) or an intrinsic value
// (Section IV).
package pkt

import "fmt"

// Packet is a unit-sized packet. Which "heterogeneity" dimensions are
// meaningful depends on the model:
//
//   - processing model: Work ∈ [1,k] is the required processing in cycles,
//     Value is 1;
//   - value model: Value ∈ [1,k] is the intrinsic value, Work is 1.
//
// Port is the destination output port, 0-based.
type Packet struct {
	// Port is the destination output port, 0-based.
	Port int
	// Work is the required processing in cycles (processing model).
	Work int
	// Value is the intrinsic value (value model).
	Value int
}

// NewWork returns a processing-model packet: unit value, the given work.
func NewWork(port, work int) Packet {
	return Packet{Port: port, Work: work, Value: 1}
}

// NewValue returns a value-model packet: unit work, the given value.
func NewValue(port, value int) Packet {
	return Packet{Port: port, Work: 1, Value: value}
}

// String implements fmt.Stringer in the paper's boxed notation, e.g.
// "[w=3 -> 2]" for a packet with work 3 destined to port 2. A packet
// carrying both labels renders both.
func (p Packet) String() string {
	if p.Value > 1 && p.Work > 1 {
		return fmt.Sprintf("[w=%d v=%d -> %d]", p.Work, p.Value, p.Port)
	}
	if p.Value > 1 {
		return fmt.Sprintf("[v=%d -> %d]", p.Value, p.Port)
	}
	return fmt.Sprintf("[w=%d -> %d]", p.Work, p.Port)
}

// Validate reports whether the packet is well-formed for a switch with
// ports output ports and the per-packet bound maxLabel (k) on work and
// value.
//
//smb:hotpath
func (p Packet) Validate(ports, maxLabel int) error {
	switch {
	case p.Port < 0 || p.Port >= ports:
		//smb:alloc-ok validation failure path, never taken by well-formed input
		return fmt.Errorf("pkt: port %d out of range [0,%d)", p.Port, ports)
	case p.Work < 1 || p.Work > maxLabel:
		//smb:alloc-ok validation failure path, never taken by well-formed input
		return fmt.Errorf("pkt: work %d out of range [1,%d]", p.Work, maxLabel)
	case p.Value < 1 || p.Value > maxLabel:
		//smb:alloc-ok validation failure path, never taken by well-formed input
		return fmt.Errorf("pkt: value %d out of range [1,%d]", p.Value, maxLabel)
	}
	return nil
}

// Burst returns h copies of p, the paper's "h × [w]" notation, or nil
// when h ≤ 0.
func Burst(p Packet, h int) []Packet {
	if h <= 0 {
		return nil
	}
	out := make([]Packet, h)
	for i := range out {
		out[i] = p
	}
	return out
}

// Concat concatenates bursts preserving arrival order.
func Concat(bursts ...[]Packet) []Packet {
	var total int
	for _, b := range bursts {
		total += len(b)
	}
	out := make([]Packet, 0, total)
	for _, b := range bursts {
		out = append(out, b...)
	}
	return out
}
