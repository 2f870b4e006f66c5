package traffic

import "testing"

// BenchmarkMMPPNext times the generator one slot per op (ns/op is
// ns/slot) and reports ns/pkt, on three shapes: a Fig. 5(1) cell at
// k = 16 (100 sources, work labels, port affinity), the same at the
// paper's 500 sources and equal offered rate, and a Fig. 5(4) cell at
// k = 16 (value labels drawn uniformly, offered rate 40).
func BenchmarkMMPPNext(b *testing.B) {
	paper := fig51Cfg()
	paper.Sources = 500
	paper.LambdaOn = paper.LambdaForRate(fig51Cfg().MeanRate())
	value := fig51Cfg()
	value.Label, value.PortWork = LabelValueUniform, nil
	value.LambdaOn = value.LambdaForRate(2.5 * 16)
	for _, bc := range []struct {
		name string
		cfg  MMPPConfig
	}{
		{"fig5.1-100src", fig51Cfg()},
		{"fig5.1-500src", paper},
		{"fig5.4-value-uniform", value},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g, err := NewMMPP(bc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			var pkts int
			for b.Loop() {
				pkts += len(g.Next())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(pkts, 1)), "ns/pkt")
			b.ReportMetric(float64(pkts)/float64(b.N), "pkts/slot")
		})
	}
}
