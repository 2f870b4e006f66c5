package policy

import (
	"smbm/internal/core"
	"smbm/internal/hmath"
	"smbm/internal/pkt"
)

// NHDTW is an exploratory probe at the paper's future-work question
// ("it is unclear how to generalize NHDT to heterogeneous processing
// better"): harmonic dynamic thresholds ranked by buffered *work*
// instead of queue length, mirroring the LQD→LWD fix.
//
// On arrival to port i, let m be the number of queues whose total
// residual work is at least Q_i's (the arrival counted virtually);
// accept while the total packet count of those m queues stays below
// (B/H_n)·H_m.
//
// Negative result (kept as an executable record): on the Theorem 3
// arrival script the ranking change does not help — the attack presents
// queues whose length order and work order coincide, so the binding
// constraint is the harmonic packet budget itself, not the ranking.
// This corroborates the paper's remark that the right generalization is
// genuinely unclear. See TestNHDTWOnTheorem3Construction.
//
// Not part of the paper's roster.
type NHDTW struct{}

// Name implements core.Policy.
func (NHDTW) Name() string { return "NHDTW" }

// Admit implements core.Policy.
//
//smb:hotpath
func (NHDTW) Admit(v core.View, p pkt.Packet) core.Decision {
	if v.Free() == 0 {
		return core.Drop()
	}
	var m, sum int
	wi := v.QueueWork(p.Port) + v.PortWork(p.Port) // virtual add
	for j := 0; j < v.Ports(); j++ {
		w := v.QueueWork(j)
		if j == p.Port {
			w += v.PortWork(p.Port)
		}
		if w >= wi {
			m++
			sum += v.QueueLen(j)
		}
	}
	threshold := float64(v.Buffer()) * hmath.Harmonic(m) / hmath.Harmonic(v.Ports())
	if float64(sum) < threshold {
		return core.Accept()
	}
	return core.Drop()
}

var _ core.Policy = NHDTW{}

// Experimental returns policies beyond the paper's roster, kept separate
// so the reproduction experiments stay faithful.
func Experimental() []core.Policy {
	return []core.Policy{NHDTW{}}
}
