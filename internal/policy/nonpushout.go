package policy

import (
	"smbm/internal/core"
	"smbm/internal/hmath"
	"smbm/internal/pkt"
)

// Greedy is the baseline non-push-out tail-drop policy: accept whenever
// the shared buffer has free space. In the single-queue heterogeneous
// model greedy non-push-out policies are k-competitive [Keslassy et al.];
// it serves as the floor for all comparisons.
type Greedy struct{}

// Name implements core.Policy.
func (Greedy) Name() string { return "Greedy" }

// Admit implements core.Policy.
//
//smb:hotpath
func (Greedy) Admit(v core.View, _ pkt.Packet) core.Decision {
	if v.Free() > 0 {
		return core.Accept()
	}
	return core.Drop()
}

// NHST is the Non-Push-Out-Harmonic-Static-Threshold policy: accept a
// packet for port i while |Q_i| < B/(w_i·Z) with Z = Σ_j 1/w_j.
// Thresholds are inversely proportional to the port's required work.
// Theorem 1: Θ(kZ)-competitive.
type NHST struct{}

// Name implements core.Policy.
func (NHST) Name() string { return "NHST" }

// Admit implements core.Policy.
//
//smb:hotpath
func (NHST) Admit(v core.View, p pkt.Packet) core.Decision {
	if v.Free() == 0 {
		return core.Drop()
	}
	z := 0.0
	for j := 0; j < v.Ports(); j++ {
		z += 1 / float64(v.PortWork(j))
	}
	// |Q_i| < B/(w_i·Z)  ⇔  |Q_i|·w_i·Z < B, avoiding division.
	if float64(v.QueueLen(p.Port))*float64(v.PortWork(p.Port))*z < float64(v.Buffer()) {
		return core.Accept()
	}
	return core.Drop()
}

// NEST is the Non-Push-Out-Equal-Static-Threshold policy: accept for port
// i while |Q_i| < B/n, i.e. complete partitioning of the buffer.
// Theorem 2: Θ(n)-competitive — interestingly better than NHST's Θ(kZ) in
// the worst case. Length-based, so it applies unchanged in the value
// model (used in Fig. 5 panels 4–9).
type NEST struct{}

// Name implements core.Policy.
func (NEST) Name() string { return "NEST" }

// Admit implements core.Policy.
//
//smb:hotpath
func (NEST) Admit(v core.View, p pkt.Packet) core.Decision {
	if v.Free() == 0 {
		return core.Drop()
	}
	// |Q_i| < B/n  ⇔  |Q_i|·n < B.
	if v.QueueLen(p.Port)*v.Ports() < v.Buffer() {
		return core.Accept()
	}
	return core.Drop()
}

// NHDT is the Non-Push-Out-Harmonic-Dynamic-Threshold policy of
// Kesselman–Mansour: on arrival to port i, let m be the number of queues
// at least as long as Q_i; accept while the total length of those m
// queues is below (B/H_n)·H_m. O(log n)-competitive under uniform
// processing; Theorem 3 shows it degrades to ≥ ½√(k ln k) under
// heterogeneous processing. Length-based, hence also run in the value
// model.
//
// The paper instantiates the harmonic normalizer with the number of
// output ports (its configurations have n = k); we use H_n accordingly.
type NHDT struct{}

// Name implements core.Policy.
func (NHDT) Name() string { return "NHDT" }

// Admit implements core.Policy.
//
//smb:hotpath
func (NHDT) Admit(v core.View, p pkt.Packet) core.Decision {
	if v.Free() == 0 {
		return core.Drop()
	}
	var m, sum int
	li := v.QueueLen(p.Port)
	for j := 0; j < v.Ports(); j++ {
		if l := v.QueueLen(j); l >= li {
			m++
			sum += l
		}
	}
	threshold := float64(v.Buffer()) * hmath.Harmonic(m) / hmath.Harmonic(v.Ports())
	if float64(sum) < threshold {
		return core.Accept()
	}
	return core.Drop()
}

var (
	_ core.Policy = Greedy{}
	_ core.Policy = NHST{}
	_ core.Policy = NEST{}
	_ core.Policy = NHDT{}
)
