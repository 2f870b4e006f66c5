package traffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"smbm/internal/core"
	"smbm/internal/hmath"
	"smbm/internal/pkt"
)

func baseCfg() MMPPConfig {
	return MMPPConfig{
		Sources:  50,
		LambdaOn: 1.0,
		POnOff:   0.1,
		POffOn:   0.01,
		Label:    LabelValueUniform,
		Ports:    8,
		MaxLabel: 8,
		Seed:     1,
	}
}

func TestMMPPConfigValidate(t *testing.T) {
	mutate := func(f func(*MMPPConfig)) MMPPConfig {
		c := baseCfg()
		f(&c)
		return c
	}
	cases := []struct {
		name    string
		cfg     MMPPConfig
		wantErr bool
	}{
		{"valid", baseCfg(), false},
		{"zero sources", mutate(func(c *MMPPConfig) { c.Sources = 0 }), true},
		{"negative lambda", mutate(func(c *MMPPConfig) { c.LambdaOn = -1 }), true},
		{"NaN lambda", mutate(func(c *MMPPConfig) { c.LambdaOn = math.NaN() }), true},
		{"bad p on-off", mutate(func(c *MMPPConfig) { c.POnOff = 1.5 }), true},
		{"bad p off-on", mutate(func(c *MMPPConfig) { c.POffOn = -0.1 }), true},
		{"NaN p on-off", mutate(func(c *MMPPConfig) { c.POnOff = math.NaN() }), true},
		{"NaN p off-on", mutate(func(c *MMPPConfig) { c.POffOn = math.NaN() }), true},
		{"+Inf p on-off", mutate(func(c *MMPPConfig) { c.POnOff = math.Inf(1) }), true},
		{"-Inf p off-on", mutate(func(c *MMPPConfig) { c.POffOn = math.Inf(-1) }), true},
		{"zero ports", mutate(func(c *MMPPConfig) { c.Ports = 0 }), true},
		{"zero max label", mutate(func(c *MMPPConfig) { c.MaxLabel = 0 }), true},
		{"bad label mode", mutate(func(c *MMPPConfig) { c.Label = 0 }), true},
		{"value by port needs n==k", mutate(func(c *MMPPConfig) { c.Label = LabelValueByPort; c.Ports = 4 }), true},
		{"portwork len mismatch", mutate(func(c *MMPPConfig) { c.PortWork = []int{1, 2} }), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.cfg.Validate(); (err != nil) != c.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, c.wantErr)
			}
		})
	}
}

func TestStationaryOnFraction(t *testing.T) {
	c := baseCfg()
	if got, want := c.StationaryOnFraction(), 0.01/0.11; math.Abs(got-want) > 1e-12 {
		t.Errorf("StationaryOnFraction = %v, want %v", got, want)
	}
	frozen := baseCfg()
	frozen.POnOff, frozen.POffOn = 0, 0
	if got := frozen.StationaryOnFraction(); got != 1 {
		t.Errorf("frozen chain fraction = %v, want 1", got)
	}
}

func TestLambdaForRate(t *testing.T) {
	c := baseCfg()
	c.LambdaOn = c.LambdaForRate(10)
	if got := c.MeanRate(); math.Abs(got-10) > 1e-9 {
		t.Errorf("MeanRate after calibration = %v, want 10", got)
	}
}

func TestMMPPDeterministicBySeed(t *testing.T) {
	g1, err := NewMMPP(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewMMPP(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	tr1 := Record(g1, 200)
	tr2 := Record(g2, 200)
	if tr1.Packets() != tr2.Packets() {
		t.Fatalf("same seed produced %d vs %d packets", tr1.Packets(), tr2.Packets())
	}
	for s := range tr1 {
		for i := range tr1[s] {
			if tr1[s][i] != tr2[s][i] {
				t.Fatalf("slot %d packet %d differs", s, i)
			}
		}
	}
	other := baseCfg()
	other.Seed = 99
	g3, err := NewMMPP(other)
	if err != nil {
		t.Fatal(err)
	}
	if tr3 := Record(g3, 200); tr3.Packets() == tr1.Packets() {
		t.Log("different seeds produced equal packet counts (possible but unlikely)")
	}
}

func TestMMPPMeanRateEmpirical(t *testing.T) {
	c := baseCfg()
	c.LambdaOn = c.LambdaForRate(20)
	g, err := NewMMPP(c)
	if err != nil {
		t.Fatal(err)
	}
	tr := Record(g, 20000)
	got := float64(tr.Packets()) / float64(len(tr))
	if got < 15 || got > 25 {
		t.Errorf("empirical rate %.2f, want within 25%% of 20", got)
	}
}

func TestMMPPLabelModes(t *testing.T) {
	t.Run("work by port", func(t *testing.T) {
		c := baseCfg()
		c.Label = LabelWorkByPort
		c.PortWork = core.ContiguousWorks(c.Ports)
		g, err := NewMMPP(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, slot := range Record(g, 500) {
			for _, p := range slot {
				if p.Work != p.Port+1 || p.Value != 1 {
					t.Fatalf("bad labeling: %+v", p)
				}
			}
		}
	})
	t.Run("value uniform covers the range", func(t *testing.T) {
		g, err := NewMMPP(baseCfg())
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, slot := range Record(g, 2000) {
			for _, p := range slot {
				if p.Work != 1 {
					t.Fatalf("value packet with work %d", p.Work)
				}
				if p.Value < 1 || p.Value > 8 {
					t.Fatalf("value %d out of range", p.Value)
				}
				seen[p.Value] = true
			}
		}
		if len(seen) != 8 {
			t.Errorf("only %d distinct values seen", len(seen))
		}
	})
	t.Run("value by port", func(t *testing.T) {
		c := baseCfg()
		c.Label = LabelValueByPort
		g, err := NewMMPP(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, slot := range Record(g, 500) {
			for _, p := range slot {
				if p.Value != p.Port+1 {
					t.Fatalf("value %d != port+1 %d", p.Value, p.Port+1)
				}
			}
		}
	})
}

func TestMMPPPortAffinity(t *testing.T) {
	c := baseCfg()
	c.Sources = 3
	c.PortAffinity = true
	c.LambdaOn = 2
	g, err := NewMMPP(c)
	if err != nil {
		t.Fatal(err)
	}
	ports := map[int]bool{}
	for _, slot := range Record(g, 3000) {
		for _, p := range slot {
			ports[p.Port] = true
		}
	}
	if len(ports) > 3 {
		t.Errorf("3 pinned sources hit %d ports", len(ports))
	}
}

func TestPortZipfSkew(t *testing.T) {
	c := baseCfg()
	c.PortZipf = 1.2
	c.LambdaOn = 2
	g, err := NewMMPP(c)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, c.Ports)
	for _, slot := range Record(g, 5000) {
		for _, p := range slot {
			counts[p.Port]++
		}
	}
	// Port 0 must dominate and popularity must broadly decay.
	if counts[0] <= counts[c.Ports-1] {
		t.Errorf("no skew: counts %v", counts)
	}
	if float64(counts[0]) < 1.5*float64(counts[1]) {
		t.Errorf("skew too weak for s=1.2: counts %v", counts)
	}
	// Affinity draws are skewed too.
	c.PortAffinity = true
	c.Sources = 400
	g, err = NewMMPP(c)
	if err != nil {
		t.Fatal(err)
	}
	pinned := make([]int, c.Ports)
	for _, p := range g.sourcePort {
		pinned[p]++
	}
	if pinned[0] <= pinned[c.Ports-1] {
		t.Errorf("affinity not skewed: %v", pinned)
	}
}

func TestPortZipfValidation(t *testing.T) {
	c := baseCfg()
	c.PortZipf = -1
	if err := c.Validate(); err == nil {
		t.Error("negative Zipf exponent accepted")
	}
	c.PortZipf = math.Inf(1)
	if err := c.Validate(); err == nil {
		t.Error("infinite Zipf exponent accepted")
	}
}

func TestPoisson(t *testing.T) {
	var src lagged
	src.Seed(3)
	at := src.tap
	var got int
	if got, at = poisson(&src, at, 0, 1); got != 0 {
		t.Errorf("poisson(0) = %d", got)
	}
	if got, at = poisson(&src, at, -2, math.Exp(2)); got != 0 {
		t.Errorf("poisson(-2) = %d", got)
	}
	for _, lambda := range []float64{0.5, 3, 12, 50} {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			got, at = poisson(&src, at, lambda, math.Exp(-lambda))
			sum += float64(got)
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.15*lambda {
			t.Errorf("poisson(λ=%v) empirical mean %v", lambda, mean)
		}
	}
}

func TestQuickPoissonNonNegative(t *testing.T) {
	var src lagged
	src.Seed(9)
	f := func(l float64) bool {
		lambda := math.Mod(math.Abs(l), 100)
		n, at := poisson(&src, src.tap, lambda, math.Exp(-lambda))
		src.tap = at
		return n >= 0
	}
	if err := quick.Check(f, qcfg(200)); err != nil {
		t.Error(err)
	}
}

// qcfg returns a deterministic quick.Config so property tests are
// reproducible run to run.
func qcfg(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(7))}
}

// fig51Cfg is the arrival stream of a Fig. 5(1) cell at k = 16: 100
// sources, contiguous works 1..16 with port affinity, offered load 2.5
// times the service capacity H_16.
func fig51Cfg() MMPPConfig {
	c := MMPPConfig{
		Sources:      100,
		POnOff:       0.1,
		POffOn:       0.01,
		Label:        LabelWorkByPort,
		Ports:        16,
		MaxLabel:     16,
		PortWork:     core.ContiguousWorks(16),
		PortAffinity: true,
		Seed:         1,
	}
	c.LambdaOn = c.LambdaForRate(2.5 * hmath.Harmonic(16))
	return c
}

// burstSink keeps the bursts TestWarmSourcesZeroAllocs reads reachable,
// so a copy made per slot escapes to the heap and is counted even when
// the compiler devirtualizes and inlines the call.
var burstSink []pkt.Packet

// TestWarmSourcesZeroAllocs pins the borrowed-burst contract's cost: a
// trace cursor lends each recorded slot without copying it, and a warm
// MMPP generator builds every burst in the buffer it reuses, so neither
// allocates per slot. Each measured run reads slotsPerRun slots, so one
// allocation per slot shows as slotsPerRun per run even with a few empty
// slots, while AllocsPerRun's truncated mean tolerates the rare slot
// that outgrows the generator's buffer.
func TestWarmSourcesZeroAllocs(t *testing.T) {
	const (
		slots       = 2000
		slotsPerRun = 10
		runs        = slots/slotsPerRun - 1 // AllocsPerRun adds one warm-up run
	)
	read := func(src Source) func() {
		return func() {
			for i := 0; i < slotsPerRun; i++ {
				burstSink = src.Next()
			}
		}
	}
	t.Run("trace-cursor", func(t *testing.T) {
		g, err := NewMMPP(fig51Cfg())
		if err != nil {
			t.Fatal(err)
		}
		tr := Record(g, slots)
		if tr.Packets() < slots {
			t.Fatalf("trace too sparse to measure: %d packets in %d slots", tr.Packets(), slots)
		}
		cur, err := tr.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		if allocs := testing.AllocsPerRun(runs, read(cur)); allocs != 0 {
			t.Errorf("trace cursor allocates %.0f times per %d slots, want 0", allocs, slotsPerRun)
		}
	})
	t.Run("mmpp-fig5.1", func(t *testing.T) {
		g, err := NewMMPP(fig51Cfg())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < slots; i++ {
			g.Next() // grow the burst buffer to its working size
		}
		if allocs := testing.AllocsPerRun(runs, read(g)); allocs != 0 {
			t.Errorf("warm MMPP generator allocates %.0f times per %d slots, want 0", allocs, slotsPerRun)
		}
	})
	// The fig5.6/5.9 megaburst shape: λ ≈ 323 puts every on-source slot
	// through poisson's normal approximation, whose NormFloat64 draw
	// builds a rand.Rand over the generator's own register.
	t.Run("mmpp-megaburst", func(t *testing.T) {
		c := MMPPConfig{
			Sources: 20, POnOff: 0.5, POffOn: 0.005,
			Label: LabelValueUniform, Ports: 16, MaxLabel: 16, Seed: 1,
		}
		c.LambdaOn = c.LambdaForRate(4 * 16)
		if c.LambdaOn <= 30 {
			t.Fatalf("λ = %.1f does not reach poisson's normal branch", c.LambdaOn)
		}
		g, err := NewMMPP(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < slots; i++ {
			g.Next()
		}
		if allocs := testing.AllocsPerRun(runs, read(g)); allocs != 0 {
			t.Errorf("warm megaburst generator allocates %.0f times per %d slots, want 0", allocs, slotsPerRun)
		}
	})
}
