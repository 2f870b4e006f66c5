package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"smbm/internal/pkt"
)

// refMMPP is the reference oracle for MMPP: the same generator drawing
// every value through a *rand.Rand seeded by rand.NewSource, one
// interface call per draw. MMPP must emit its bursts packet for packet.
type refMMPP struct {
	cfg        MMPPConfig
	rng        *rand.Rand
	on         []bool
	sourcePort []int
	portCDF    []float64
}

func newRefMMPP(cfg MMPPConfig) (*refMMPP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &refMMPP{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), on: make([]bool, cfg.Sources)}
	pOn := cfg.StationaryOnFraction()
	for i := range g.on {
		g.on[i] = g.rng.Float64() < pOn
	}
	if cfg.PortZipf > 0 {
		g.portCDF = make([]float64, cfg.Ports)
		var total float64
		for i := range g.portCDF {
			total += math.Pow(float64(i+1), -cfg.PortZipf)
			g.portCDF[i] = total
		}
		for i := range g.portCDF {
			g.portCDF[i] /= total
		}
	}
	if cfg.PortAffinity {
		g.sourcePort = make([]int, cfg.Sources)
		for i := range g.sourcePort {
			g.sourcePort[i] = g.drawPort()
		}
	}
	return g, nil
}

func (g *refMMPP) drawPort() int {
	if g.portCDF == nil {
		return g.rng.Intn(g.cfg.Ports)
	}
	u := g.rng.Float64()
	lo, hi := 0, len(g.portCDF)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.portCDF[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (g *refMMPP) Next() []pkt.Packet {
	var out []pkt.Packet
	for i := range g.on {
		if g.on[i] {
			for n := refPoisson(g.rng, g.cfg.LambdaOn); n > 0; n-- {
				out = append(out, g.emit(i))
			}
			if g.rng.Float64() < g.cfg.POnOff {
				g.on[i] = false
			}
		} else if g.rng.Float64() < g.cfg.POffOn {
			g.on[i] = true
		}
	}
	return out
}

func (g *refMMPP) emit(i int) pkt.Packet {
	port := g.drawPort()
	if g.cfg.PortAffinity {
		port = g.sourcePort[i]
	}
	switch g.cfg.Label {
	case LabelWorkByPort:
		work := 1
		if g.cfg.PortWork != nil {
			work = g.cfg.PortWork[port]
		}
		return pkt.NewWork(port, work)
	case LabelValueUniform:
		return pkt.NewValue(port, 1+g.rng.Intn(g.cfg.MaxLabel))
	default:
		return pkt.NewValue(port, port+1)
	}
}

func refPoisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		return max(0, int(math.Round(rng.NormFloat64()*math.Sqrt(lambda)+lambda)))
	}
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= math.Exp(-lambda) {
			return k
		}
		k++
	}
}

// matchReference streams slots slots of cfg from MMPP and from the
// reference and fails at the first packet that differs.
func matchReference(t *testing.T, cfg MMPPConfig, slots int) {
	t.Helper()
	g, ref := newPair(t, cfg)
	sameBursts(t, g, ref, slots)
}

// newPair builds MMPP and the reference from cfg.
func newPair(t *testing.T, cfg MMPPConfig) (*MMPP, *refMMPP) {
	t.Helper()
	g, err := NewMMPP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefMMPP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, ref
}

// sameBursts fails at the first of the next slots bursts in which g and
// ref differ.
func sameBursts(t *testing.T, g *MMPP, ref *refMMPP, slots int) {
	t.Helper()
	for s := range slots {
		got, want := g.Next(), ref.Next()
		if len(got) != len(want) {
			t.Fatalf("slot %d: %d packets, reference %d", s, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("slot %d packet %d: %+v, reference %+v", s, i, got[i], want[i])
			}
		}
	}
}

// TestMMPPMatchesReference is the generator's differential: every label
// mode, Zipf on and off, affinity on and off, and λ on both sides of
// poisson's normal-approximation cut at 30, over 7, 12, 16 and 32
// ports and the seeds of lagSeeds, then transition probabilities of 0
// and 1, 20,000 slots a case.
func TestMMPPMatchesReference(t *testing.T) {
	for _, p := range [][2]float64{{0, 1}, {1, 0}, {1, 1}} {
		cfg := MMPPConfig{
			Sources: 8, LambdaOn: 1.5, POnOff: p[0], POffOn: p[1],
			Label: LabelValueUniform, Ports: 12, MaxLabel: 12, Seed: 9,
		}
		t.Run(fmt.Sprintf("pOnOff%v/pOffOn%v", p[0], p[1]), func(t *testing.T) { matchReference(t, cfg, 20_000) })
	}
	ports := []int{7, 12, 16, 32}
	c := 0
	for _, label := range []LabelMode{LabelWorkByPort, LabelValueUniform, LabelValueByPort} {
		for _, zipf := range []float64{0, 1.1} {
			for _, affinity := range []bool{false, true} {
				for _, lambda := range []float64{1.5, 35} {
					n := ports[c/2%len(ports)]
					cfg := MMPPConfig{
						Sources: 8, LambdaOn: lambda, POnOff: 0.2, POffOn: 0.01,
						Label: label, Ports: n, MaxLabel: n, PortAffinity: affinity, PortZipf: zipf,
						Seed: lagSeeds[c/3%len(lagSeeds)],
					}
					if label == LabelWorkByPort {
						cfg.PortWork = make([]int, n)
						for i := range cfg.PortWork {
							cfg.PortWork[i] = 1 + i%5
						}
					}
					c++
					name := fmt.Sprintf("label%d/zipf%v/affinity%v/lambda%v/ports%d/seed%d",
						label, zipf, affinity, lambda, n, cfg.Seed)
					t.Run(name, func(t *testing.T) { matchReference(t, cfg, 20_000) })
				}
			}
		}
	}
}

// FuzzMMPPStream fuzzes the generator against the reference over the
// seed, the port count, the label mode, affinity, the Zipf exponent and
// λ (both sides of poisson's cut at 30).
func FuzzMMPPStream(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(0), false, 0.0, 2.0)
	f.Add(int64(-7), uint8(7), uint8(1), true, 1.1, 35.0)
	f.Add(int64(math.MaxInt32), uint8(32), uint8(2), false, 0.5, 0.3)
	f.Add(int64(1<<40), uint8(1), uint8(1), true, 3.0, 320.0)
	f.Fuzz(func(t *testing.T, seed int64, ports, mode uint8, affinity bool, zipf, lambda float64) {
		n := 1 + int(ports%64)
		if math.IsNaN(zipf) || math.IsInf(zipf, 0) {
			zipf = 0
		}
		if math.IsNaN(lambda) || math.IsInf(lambda, 0) {
			lambda = 0
		}
		cfg := MMPPConfig{
			Sources: 6, LambdaOn: math.Mod(math.Abs(lambda), 400), POnOff: 0.3, POffOn: 0.05,
			Label: LabelWorkByPort + LabelMode(mode%3), Ports: n, MaxLabel: n,
			PortAffinity: affinity, PortZipf: math.Mod(math.Abs(zipf), 4), Seed: seed,
		}
		matchReference(t, cfg, 300)
	})
}

// forceDraws rewrites the register of r so that every third of its
// next 273 draws is at least redrawAt: a value Float64 redraws and
// Intn rejects for every bound that is not a power of two. Draw j
// writes the word draw j+273 reads as its tap, so the next 273 draws
// read no tap word an earlier one of them writes, and each can be set
// on its own.
func forceDraws(r *lagged) {
	t := r.tap
	for j := range lagTap {
		t = min(t-1, lagLen-1)
		f := (t + lagFeed) % lagLen
		if j%3 == 0 {
			r.vec[f] = redrawAt + int64(j) - r.vec[t]
		}
	}
}

// TestMMPPRedrawsMatchReference drives the redraw and rejection paths
// that a seeded stream almost never reaches (a Float64 redraw has
// probability 2⁻⁵⁴ per draw): after a few slots it forces draws at
// and above redrawAt into both generators' registers, the reference
// drawing through rand.New over a copy of MMPP's register, and
// requires the same bursts afterwards.
func TestMMPPRedrawsMatchReference(t *testing.T) {
	for _, label := range []LabelMode{LabelWorkByPort, LabelValueUniform, LabelValueByPort} {
		for _, zipf := range []float64{0, 1.1} {
			for _, lambda := range []float64{1.5, 35} {
				cfg := MMPPConfig{
					Sources: 12, LambdaOn: lambda, POnOff: 0.2, POffOn: 0.3,
					Label: label, Ports: 12, MaxLabel: 12, PortAffinity: zipf == 0, PortZipf: zipf, Seed: 5,
				}
				t.Run(fmt.Sprintf("label%d/zipf%v/lambda%v", label, zipf, lambda), func(t *testing.T) {
					g, ref := newPair(t, cfg)
					for range 5 {
						g.Next()
						ref.Next()
					}
					forceDraws(&g.src)
					shadow := g.src
					ref.rng = rand.New(&shadow)
					sameBursts(t, g, ref, 200)
					if g.src != shadow {
						t.Fatal("registers differ after 200 slots")
					}
				})
			}
		}
	}
}
