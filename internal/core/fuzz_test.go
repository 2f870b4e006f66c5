package core

import (
	"fmt"
	"math"
	"testing"

	"smbm/internal/pkt"
)

// FuzzDecisionExecutor drives the engine with a byte-scripted policy
// that emits arbitrary (possibly invalid) decisions. The engine must
// never panic: invalid decisions surface as errors and valid ones keep
// every invariant (checked per step).
func FuzzDecisionExecutor(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{1, 2, 0, 3}, false)
	f.Add([]byte{255, 254, 253}, []byte{0, 0, 0, 0, 0, 0, 0, 0}, true)
	f.Add([]byte{}, []byte{7}, false)
	f.Fuzz(func(t *testing.T, script []byte, arrivals []byte, valueModel bool) {
		cfg := Config{
			Ports:           3,
			Buffer:          4,
			MaxLabel:        3,
			Speedup:         1,
			CheckInvariants: true,
		}
		if valueModel {
			cfg.Model = ModelValue
		} else {
			cfg.Model = ModelProcessing
			cfg.PortWork = []int{1, 2, 3}
		}
		step := 0
		scripted := PolicyFunc{PolicyName: "fuzz", Func: func(v View, _ pkt.Packet) Decision {
			if len(script) == 0 {
				return Drop()
			}
			b := script[step%len(script)]
			step++
			switch b % 4 {
			case 0:
				return Drop()
			case 1:
				return Accept()
			default:
				// Victim may be out of range or empty: the engine must
				// reject such decisions with an error, not a panic.
				return PushOut(int(b%5) - 1)
			}
		}}
		sw := MustNew(cfg, scripted)
		for i, a := range arrivals {
			port := int(a) % cfg.Ports
			var p pkt.Packet
			if valueModel {
				p = pkt.NewValue(port, 1+int(a)%cfg.MaxLabel)
			} else {
				p = pkt.NewWork(port, cfg.PortWork[port])
			}
			if err := sw.Arrive(p); err != nil {
				// Invalid scripted decision: acceptable, stop this run.
				return
			}
			if i%3 == 2 {
				sw.Transmit()
			}
		}
		sw.Drain()
		st := sw.Stats()
		if st.Arrived != st.Accepted+st.Dropped {
			t.Fatalf("conservation broken: %+v", st)
		}
		if st.Accepted != st.Transmitted+st.PushedOut {
			t.Fatalf("conservation broken after drain: %+v", st)
		}
	})
}

// refArriveCheck is the two-step arrival validation PacketCheck fuses:
// pkt.Validate's range checks, then the processing model's per-port
// work match. It is the reference FuzzArriveValidation holds ArriveBatch to.
func refArriveCheck(cfg Config, p pkt.Packet) error {
	if err := p.Validate(cfg.Ports, cfg.MaxLabel); err != nil {
		return err
	}
	if cfg.Model == ModelProcessing && p.Work != cfg.portWork()[p.Port] {
		return fmt.Errorf("core: packet work %d does not match port %d configuration %d", p.Work, p.Port, cfg.portWork()[p.Port])
	}
	return nil
}

// validationConfig derives a small switch configuration from the fuzz
// selectors: the processing model when sel is even, with unit works
// (nil PortWork) when sel/2 is odd, the value model when sel is odd; n
// and MaxLabel in [1,4].
func validationConfig(sel, n, ml uint8) Config {
	cfg := Config{
		Model:    []Model{ModelProcessing, ModelValue}[sel%2],
		Ports:    1 + int(n%4),
		MaxLabel: 1 + int(ml%4),
		Speedup:  1,
	}
	cfg.Buffer = 2 * cfg.Ports
	if cfg.Model == ModelProcessing && sel/2%2 == 0 {
		cfg.PortWork = make([]int, cfg.Ports)
		for i := range cfg.PortWork {
			cfg.PortWork[i] = min(1+i, cfg.MaxLabel)
		}
	}
	return cfg
}

// FuzzArriveValidation holds ArriveBatch's one-branch arrival check to
// the two-step reference, in both models: the same packets pass, and a
// refused one fails with the same *BurstError text. The seed corpus
// covers, exhaustively for two configurations per selector (selectors
// 0–5: processing with port works, with unit works, and value), every
// port in [-1, n], every work and value in [-1, MaxLabel+1], and the
// int extremes.
func FuzzArriveValidation(f *testing.F) {
	for sel := uint8(0); sel < 6; sel++ {
		for _, dims := range [][2]uint8{{0, 0}, {2, 3}} {
			cfg := validationConfig(sel, dims[0], dims[1])
			ports := []int{math.MinInt, math.MaxInt}
			for p := -1; p <= cfg.Ports; p++ {
				ports = append(ports, p)
			}
			labels := []int{math.MinInt, math.MaxInt}
			for l := -1; l <= cfg.MaxLabel+1; l++ {
				labels = append(labels, l)
			}
			for _, port := range ports {
				for _, work := range labels {
					for _, value := range labels {
						f.Add(sel, dims[0], dims[1], port, work, value)
					}
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, sel, n, ml uint8, port, work, value int) {
		cfg := validationConfig(sel, n, ml)
		sw := MustNew(cfg, PolicyFunc{PolicyName: "greedy", Func: func(v View, _ pkt.Packet) Decision {
			if v.Free() > 0 {
				return Accept()
			}
			return Drop()
		}})
		p := pkt.Packet{Port: port, Work: work, Value: value}
		want := refArriveCheck(cfg, p)
		err := sw.ArriveBatch([]pkt.Packet{p})
		switch {
		case want == nil && err != nil:
			t.Fatalf("%v %v: ArriveBatch refused a valid packet: %v", cfg.Model, p, err)
		case want != nil && err == nil:
			t.Fatalf("%v %v: ArriveBatch accepted a packet the reference refuses: %v", cfg.Model, p, want)
		case want != nil:
			ref := &BurstError{Index: 0, Applied: 0, Err: want}
			if err.Error() != ref.Error() {
				t.Fatalf("%v %v: error %q, want %q", cfg.Model, p, err, ref)
			}
		}
		if chk := NewPacketCheck(cfg); fmt.Sprint(chk.Check(p)) != fmt.Sprint(want) {
			t.Fatalf("%v %v: PacketCheck.Check = %v, want %v", cfg.Model, p, chk.Check(p), want)
		}
	})
}
