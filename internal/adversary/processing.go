package adversary

import (
	"fmt"
	"math"

	"smbm/internal/core"
	"smbm/internal/hmath"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/traffic"
)

// contiguousCfg is the paper's canonical lower-bound configuration: k
// output ports with required work 1..k.
func contiguousCfg(k, b int) core.Config {
	return core.Config{
		Model:    core.ModelProcessing,
		Ports:    k,
		Buffer:   b,
		MaxLabel: k,
		Speedup:  1,
		PortWork: core.ContiguousWorks(k),
	}
}

// workPkt builds a processing-model packet of the contiguous
// configuration: required work w goes to port w-1.
func workPkt(w int) pkt.Packet { return pkt.NewWork(w-1, w) }

// Theorem1 builds the NHST counterexample: a burst of B packets of
// maximal work k, then silence until even OPT has drained. NHST admits
// only ~B/(k·H_k) of the burst while OPT takes all B, so the ratio
// approaches kZ = k·H_k.
func Theorem1(p Params) (Construction, error) {
	p, err := p.withDefaults(12, 1200, 3, 1)
	if err != nil {
		return Construction{}, err
	}
	k, b := p.K, p.B
	if k < 2 {
		return Construction{}, fmt.Errorf("adversary: theorem 1 needs k >= 2, got %d", k)
	}
	round := make(traffic.Trace, k*b) // OPT drains B work-k packets through one port
	round[0] = pkt.Burst(workPkt(k), b)
	z := hmath.Harmonic(k)
	accepted := acceptedBelow(float64(b) / (float64(k) * z))
	return Construction{
		ID:              "thm1",
		Theorem:         "Theorem 1",
		Statement:       "NHST is at least kZ-competitive",
		Cfg:             contiguousCfg(k, b),
		Policy:          policy.NHST{},
		Opt:             policy.Greedy{},
		Round:           round,
		Warmup:          p.Warmup,
		Rounds:          p.Rounds,
		Predicted:       float64(b) / float64(accepted),
		Asymptotic:      "kZ = k·H_k",
		AsymptoticValue: float64(k) * z,
	}, nil
}

// Theorem2 builds the NEST counterexample: all traffic targets one port,
// so the equal thresholds waste (n-1)/n of the buffer and the ratio
// approaches n.
func Theorem2(p Params) (Construction, error) {
	p, err := p.withDefaults(8, 800, 3, 1)
	if err != nil {
		return Construction{}, err
	}
	k, b := p.K, p.B
	if k < 2 {
		return Construction{}, fmt.Errorf("adversary: theorem 2 needs k >= 2, got %d", k)
	}
	round := make(traffic.Trace, b) // OPT drains B unit-work packets through one port
	round[0] = pkt.Burst(workPkt(1), b)
	accepted := acceptedBelow(float64(b) / float64(k))
	return Construction{
		ID:              "thm2",
		Theorem:         "Theorem 2",
		Statement:       "NEST is at least n-competitive",
		Cfg:             contiguousCfg(k, b),
		Policy:          policy.NEST{},
		Opt:             policy.Greedy{},
		Round:           round,
		Warmup:          p.Warmup,
		Rounds:          p.Rounds,
		Predicted:       float64(b) / float64(accepted),
		Asymptotic:      "n",
		AsymptoticValue: float64(k),
	}, nil
}

// Theorem3 builds the NHDT counterexample: bursts of the k−m largest
// works arrive in decreasing-work order followed by a burst of unit-work
// packets, so the harmonic thresholds spend the buffer on expensive
// packets; a trickle then keeps the expensive queues of both systems
// saturated while OPT rides its hoard of unit-work packets.
func Theorem3(p Params) (Construction, error) {
	p, err := p.withDefaults(64, 4096, 3, 2)
	if err != nil {
		return Construction{}, err
	}
	k, b := p.K, p.B
	if k < 8 {
		return Construction{}, fmt.Errorf("adversary: theorem 3 needs k >= 8, got %d", k)
	}
	m := k - int(math.Round(math.Sqrt(float64(k)/math.Log(float64(k)))))
	if m < 2 {
		m = 2
	}
	if m > k-2 {
		m = k - 2
	}
	roundLen := b - k + m
	if roundLen < 2 {
		return Construction{}, fmt.Errorf("adversary: theorem 3 needs B > k-m+1 (B=%d, k=%d, m=%d)", b, k, m)
	}

	round := make(traffic.Trace, roundLen)
	var first []pkt.Packet
	for w := k; w > m; w-- { // the k−m most expensive kinds, largest first
		first = append(first, pkt.Burst(workPkt(w), b)...)
	}
	first = append(first, pkt.Burst(workPkt(1), b)...)
	round[0] = first
	for t := 1; t < roundLen; t++ {
		for w := m + 1; w <= k; w++ {
			if t%w == 0 {
				round[t] = append(round[t], workPkt(w))
			}
		}
	}

	thresholds := make([]int, k)
	thresholds[0] = b - 2*(k-m)
	for w := m + 1; w <= k; w++ {
		thresholds[w-1] = 2
	}

	hk, hm := hmath.Harmonic(k), hmath.Harmonic(m)
	a := float64(b) / math.Log(float64(k))
	predicted := (1 + hk - hm) / (hk - hm + a/(float64(b-k+m)*float64(k-m+1)))
	return Construction{
		ID:              "thm3",
		Theorem:         "Theorem 3",
		Statement:       "NHDT is at least ½√(k·ln k)-competitive",
		Cfg:             contiguousCfg(k, b),
		Policy:          policy.NHDT{},
		Opt:             policy.StaticThreshold{Label: "OPT(script)", T: thresholds},
		Round:           round,
		Warmup:          p.Warmup,
		Rounds:          p.Rounds,
		Predicted:       predicted,
		Asymptotic:      "½√(k·ln k)",
		AsymptoticValue: 0.5 * math.Sqrt(float64(k)*math.Log(float64(k))),
	}, nil
}

// Theorem4 builds the LQD counterexample: one burst of unit-work packets
// plus bursts of the m = √k largest works; LQD splits the buffer evenly
// over m+1 queues and starves the unit-work queue that OPT rides for the
// rest of the round, while a trickle keeps the expensive queues of both
// systems saturated.
func Theorem4(p Params) (Construction, error) {
	p, err := p.withDefaults(100, 2000, 3, 2)
	if err != nil {
		return Construction{}, err
	}
	k, b := p.K, p.B
	if k < 4 {
		return Construction{}, fmt.Errorf("adversary: theorem 4 needs k >= 4, got %d", k)
	}
	m := int(math.Round(math.Sqrt(float64(k))))
	if m < 1 {
		m = 1
	}
	if m > k-1 {
		m = k - 1
	}
	roundLen := b

	round := make(traffic.Trace, roundLen)
	first := pkt.Burst(workPkt(1), b)
	for w := k; w > k-m; w-- {
		first = append(first, pkt.Burst(workPkt(w), b)...)
	}
	round[0] = first
	for t := 1; t < roundLen; t++ {
		for w := k - m + 1; w <= k; w++ {
			if t%w == 0 {
				round[t] = append(round[t], workPkt(w))
			}
		}
	}

	thresholds := make([]int, k)
	thresholds[0] = b - 2*m
	for w := k - m + 1; w <= k; w++ {
		thresholds[w-1] = 2
	}

	beta := hmath.HarmonicRange(k-m+1, k)
	fm, fb := float64(m), float64(b)
	predicted := 1 + ((fm-1)/fm-fm/fb)/(1/fm+(1-fm/fb)*beta)
	return Construction{
		ID:              "thm4",
		Theorem:         "Theorem 4",
		Statement:       "LQD is at least (√k − o(√k))-competitive",
		Cfg:             contiguousCfg(k, b),
		Policy:          policy.LQD{},
		Opt:             policy.StaticThreshold{Label: "OPT(script)", T: thresholds},
		Round:           round,
		Warmup:          p.Warmup,
		Rounds:          p.Rounds,
		Predicted:       predicted,
		Asymptotic:      "√k",
		AsymptoticValue: math.Sqrt(float64(k)),
	}, nil
}

// Theorem5 builds the BPD counterexample: a full set of works arrives
// every slot, BPD hoards unit-work packets and serves one port, while
// OPT partitions the buffer and serves all k ports for an H_k-fold gain.
func Theorem5(p Params) (Construction, error) {
	p, err := p.withDefaults(10, 0, 3, 1)
	if err != nil {
		return Construction{}, err
	}
	k := p.K
	if k < 2 {
		return Construction{}, fmt.Errorf("adversary: theorem 5 needs k >= 2, got %d", k)
	}
	if p.B == 0 {
		p.B = 2 * k * (k + 1) // comfortably above the theorem's B >= k(k+1)/2
	}
	b := p.B
	roundLen := 20 * k

	round := make(traffic.Trace, roundLen)
	var first []pkt.Packet
	for w := 1; w <= k; w++ {
		first = append(first, pkt.Burst(workPkt(w), b)...)
	}
	round[0] = first
	refill := make([]pkt.Packet, 0, 2*k)
	for w := 1; w <= k; w++ {
		refill = append(refill, workPkt(w), workPkt(w))
	}
	for t := 1; t < roundLen; t++ {
		round[t] = refill
	}

	thresholds := make([]int, k)
	for i := range thresholds {
		thresholds[i] = b / k
	}

	return Construction{
		ID:              "thm5",
		Theorem:         "Theorem 5",
		Statement:       "BPD is at least (ln k + γ)-competitive",
		Cfg:             contiguousCfg(k, b),
		Policy:          policy.BPD{},
		Opt:             policy.StaticThreshold{Label: "OPT(script)", T: thresholds},
		Round:           round,
		Warmup:          p.Warmup,
		Rounds:          p.Rounds,
		Predicted:       hmath.Harmonic(k),
		Asymptotic:      "ln k + γ",
		AsymptoticValue: math.Log(float64(k)) + hmath.EulerGamma,
	}, nil
}

// Theorem6 builds the LWD counterexample on works {1,2,3,6}: LWD
// balances total work and keeps only B/2 unit-work packets where OPT
// keeps B-3, costing a 4/3 − 6/B factor.
func Theorem6(p Params) (Construction, error) {
	p, err := p.withDefaults(6, 1200, 3, 2)
	if err != nil {
		return Construction{}, err
	}
	if p.K != 6 {
		return Construction{}, fmt.Errorf("adversary: theorem 6 is defined for k = 6, got %d", p.K)
	}
	b := p.B - p.B%12 // the construction divides B by 4, 6 and 12
	if b < 48 {
		return Construction{}, fmt.Errorf("adversary: theorem 6 needs B >= 48, got %d", p.B)
	}
	works := []int{1, 2, 3, 6}
	cfg := core.Config{
		Model:    core.ModelProcessing,
		Ports:    4,
		Buffer:   b,
		MaxLabel: 6,
		Speedup:  1,
		PortWork: works,
	}
	roundLen := b

	round := make(traffic.Trace, roundLen)
	round[0] = pkt.Concat(
		pkt.Burst(pkt.NewWork(0, 1), b),
		pkt.Burst(pkt.NewWork(1, 2), b/4),
		pkt.Burst(pkt.NewWork(2, 3), b/6),
		pkt.Burst(pkt.NewWork(3, 6), b/12),
	)
	for t := 1; t < roundLen; t++ {
		if t%2 == 0 {
			round[t] = append(round[t], pkt.NewWork(1, 2))
		}
		if t%3 == 0 {
			round[t] = append(round[t], pkt.NewWork(2, 3))
		}
		if t%6 == 0 {
			round[t] = append(round[t], pkt.NewWork(3, 6))
		}
	}

	fb := float64(b)
	return Construction{
		ID:              "thm6",
		Theorem:         "Theorem 6",
		Statement:       "LWD is at least (4/3 − 6/B)-competitive",
		Cfg:             cfg,
		Policy:          policy.LWD{},
		Opt:             policy.StaticThreshold{Label: "OPT(script)", T: []int{b - 6, 2, 2, 2}},
		Round:           round,
		Warmup:          p.Warmup,
		Rounds:          p.Rounds,
		Predicted:       (2*fb - 9) / (1.5 * fb),
		Asymptotic:      "4/3 − 6/B",
		AsymptoticValue: 4.0/3 - 6/fb,
	}, nil
}

// acceptedBelow returns how many packets a policy accepting "while
// |Q| < threshold" admits.
func acceptedBelow(threshold float64) int {
	n := int(threshold)
	if float64(n) < threshold {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}
