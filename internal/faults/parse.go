package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec parses the -faults CLI syntax: semicolon-separated fault
// descriptors, each a kind followed by colon-separated key=value
// fields. Kinds and their fields (all fields optional):
//
//	slowdown:port=2:c=1:period=400:dur=120   // CoreSlowdown to C'=c
//	blackout:port=-1:period=800:dur=60       // PortBlackout (port=-1 rotates)
//	squeeze:b=64:period=600:dur=150          // BufferSqueeze to B'=b
//	amplify:factor=2:period=500:dur=100      // BurstAmplify
//
// Defaults: port=-1 (rotate), period=1000, dur=250, c=1, b=16,
// factor=2. The caller sets Spec.Horizon (the CLI uses each cell's trace
// length). Example:
//
//	-faults "blackout;squeeze:b=32:period=500:dur=100"
func ParseSpec(s string) (Spec, error) {
	var sp Spec
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := parseFault(part)
		if err != nil {
			return Spec{}, fmt.Errorf("faults: spec %q: %w", part, err)
		}
		sp.Faults = append(sp.Faults, f)
	}
	if sp.Empty() {
		return Spec{}, fmt.Errorf("faults: empty spec %q", s)
	}
	return sp, nil
}

// parseFault parses one "kind:key=value:..." descriptor.
func parseFault(s string) (Fault, error) {
	fields := strings.Split(s, ":")
	f := Fault{Port: -1, Period: 1000, Duration: 250}
	switch fields[0] {
	case "slowdown":
		f.Kind, f.Value = CoreSlowdown, 1
	case "blackout":
		f.Kind = PortBlackout
	case "squeeze":
		f.Kind, f.Value = BufferSqueeze, 16
	case "amplify":
		f.Kind, f.Value = BurstAmplify, 2
	default:
		return Fault{}, fmt.Errorf("unknown fault kind %q (want slowdown, blackout, squeeze or amplify)", fields[0])
	}
	for _, kv := range fields[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Fault{}, fmt.Errorf("field %q is not key=value", kv)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return Fault{}, fmt.Errorf("field %q: %v", kv, err)
		}
		switch key {
		case "port":
			f.Port = int(n)
		case "period":
			f.Period = n
		case "dur":
			f.Duration = n
		case "c":
			if f.Kind != CoreSlowdown {
				return Fault{}, fmt.Errorf("field c is only valid for slowdown")
			}
			f.Value = int(n)
		case "b":
			if f.Kind != BufferSqueeze {
				return Fault{}, fmt.Errorf("field b is only valid for squeeze")
			}
			f.Value = int(n)
		case "factor":
			if f.Kind != BurstAmplify {
				return Fault{}, fmt.Errorf("field factor is only valid for amplify")
			}
			f.Value = int(n)
		default:
			return Fault{}, fmt.Errorf("unknown field %q", key)
		}
	}
	if err := f.validate(); err != nil {
		return Fault{}, err
	}
	return f, nil
}
