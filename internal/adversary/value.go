package adversary

import (
	"fmt"
	"math"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/traffic"
)

// valueCfg builds a value-model configuration with n ports and labels up
// to k.
func valueCfg(n, k, b int) core.Config {
	return core.Config{
		Model:    core.ModelValue,
		Ports:    n,
		Buffer:   b,
		MaxLabel: k,
		Speedup:  1,
	}
}

// Theorem9 builds the value-model LQD counterexample (value ≡ port):
// bursts of values 1..a plus a burst of value k; LQD balances queue
// lengths and keeps only B/(a+1) of the value-k packets OPT hoards.
func Theorem9(p Params) (Construction, error) {
	p, err := p.withDefaults(27, 1080, 3, 2)
	if err != nil {
		return Construction{}, err
	}
	k, b := p.K, p.B
	if k < 8 {
		return Construction{}, fmt.Errorf("adversary: theorem 9 needs k >= 8, got %d", k)
	}
	a := int(math.Round(math.Cbrt(float64(k))))
	if a < 1 {
		a = 1
	}
	if a > k-1 {
		a = k - 1
	}
	roundLen := b

	round := make(traffic.Trace, roundLen)
	var first []pkt.Packet
	for v := 1; v <= a; v++ {
		first = append(first, pkt.Burst(pkt.NewValue(v-1, v), b)...)
	}
	first = append(first, pkt.Burst(pkt.NewValue(k-1, k), b)...)
	round[0] = first
	for t := 1; t < roundLen; t++ {
		for v := 1; v <= a; v++ {
			round[t] = append(round[t], pkt.NewValue(v-1, v))
		}
	}

	thresholds := make([]int, k)
	for v := 1; v <= a; v++ {
		thresholds[v-1] = 2
	}
	thresholds[k-1] = b - 2*a

	fa, fk := float64(a), float64(k)
	predicted := (fa*(fa-1)/2 + fk) / (fa*(fa-1)/2 + fk/fa)
	return Construction{
		ID:              "thm9",
		Theorem:         "Theorem 9",
		Statement:       "value-model LQD is at least (∛k − o(∛k))-competitive",
		Cfg:             valueCfg(k, k, b),
		Policy:          policy.VLQD{},
		Opt:             policy.StaticThreshold{Label: "OPT(script)", T: thresholds},
		Round:           round,
		Warmup:          p.Warmup,
		Rounds:          p.Rounds,
		Predicted:       predicted,
		Asymptotic:      "∛k",
		AsymptoticValue: math.Cbrt(float64(k)),
	}, nil
}

// Theorem10 builds the MVD counterexample: a full set of values arrives
// every slot; MVD ends each slot holding only maximal-value packets and
// serves one port, while OPT partitions the buffer and serves all m.
func Theorem10(p Params) (Construction, error) {
	p, err := p.withDefaults(8, 64, 3, 1)
	if err != nil {
		return Construction{}, err
	}
	k, b := p.K, p.B
	if k < 2 {
		return Construction{}, fmt.Errorf("adversary: theorem 10 needs k >= 2, got %d", k)
	}
	m := k
	if b < m {
		m = b
	}
	roundLen := 20 * b

	round := make(traffic.Trace, roundLen)
	var first []pkt.Packet
	for v := 1; v <= m; v++ {
		first = append(first, pkt.Burst(pkt.NewValue(v-1, v), b)...)
	}
	round[0] = first
	refill := make([]pkt.Packet, 0, 2*m)
	for v := 1; v <= m; v++ {
		refill = append(refill, pkt.NewValue(v-1, v), pkt.NewValue(v-1, v))
	}
	for t := 1; t < roundLen; t++ {
		round[t] = refill
	}

	thresholds := make([]int, k)
	for v := 1; v <= m; v++ {
		thresholds[v-1] = b / m
	}

	return Construction{
		ID:              "thm10",
		Theorem:         "Theorem 10",
		Statement:       "MVD is at least ((m−1)/2)-competitive, m = min{k,B}",
		Cfg:             valueCfg(k, k, b),
		Policy:          policy.MVD{},
		Opt:             policy.StaticThreshold{Label: "OPT(script)", T: thresholds},
		Round:           round,
		Warmup:          p.Warmup,
		Rounds:          p.Rounds,
		Predicted:       (float64(m) + 1) / 2, // per-slot accounting: OPT moves m(m+1)/2 value, MVD moves m
		Asymptotic:      "(m−1)/2",
		AsymptoticValue: (float64(m) - 1) / 2,
	}, nil
}

// Theorem11 builds the MRD counterexample on values {1,2,3,6} (value ≡
// port): MRD balances |Q|/avg and keeps only B/2 of the value-6 packets
// OPT hoards, costing a 4/3 factor.
func Theorem11(p Params) (Construction, error) {
	p, err := p.withDefaults(6, 1200, 3, 2)
	if err != nil {
		return Construction{}, err
	}
	if p.K != 6 {
		return Construction{}, fmt.Errorf("adversary: theorem 11 is defined for k = 6, got %d", p.K)
	}
	b := p.B - p.B%12
	if b < 48 {
		return Construction{}, fmt.Errorf("adversary: theorem 11 needs B >= 48, got %d", p.B)
	}
	values := []int{1, 2, 3, 6}
	roundLen := b

	round := make(traffic.Trace, roundLen)
	var first []pkt.Packet
	for port, v := range values {
		first = append(first, pkt.Burst(pkt.NewValue(port, v), b)...)
	}
	round[0] = first
	for t := 1; t < roundLen; t++ {
		round[t] = []pkt.Packet{
			pkt.NewValue(0, 1),
			pkt.NewValue(1, 2),
			pkt.NewValue(2, 3),
		}
	}

	fb := float64(b)
	return Construction{
		ID:              "thm11",
		Theorem:         "Theorem 11",
		Statement:       "MRD is at least 4/3-competitive (value ≡ port)",
		Cfg:             valueCfg(4, 6, b),
		Policy:          policy.MRD{},
		Opt:             policy.StaticThreshold{Label: "OPT(script)", T: []int{2, 2, 2, b - 6}},
		Round:           round,
		Warmup:          p.Warmup,
		Rounds:          p.Rounds,
		Predicted:       12 * (fb - 3) / (9*fb - 18),
		Asymptotic:      "4/3",
		AsymptoticValue: 4.0 / 3,
	}, nil
}
