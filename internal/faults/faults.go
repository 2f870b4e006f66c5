// Package faults provides deterministic, seeded fault injection for the
// simulation harness: reproducible schedules of core slowdowns, port
// blackouts, buffer squeezes and arrival-burst amplification that wrap
// any sim.System. The competitive analysis of the paper assumes a
// nominal switch — fixed B, constant speedup C, every port transmitting
// — and this package answers the sensitivity question the LQD line of
// work probes: how gracefully do LWD/LQD/threshold policies degrade off
// that nominal point?
//
// Two properties keep degraded ratios meaningful:
//
//   - Determinism: the same (Spec, ports, seed) always produces a
//     byte-identical fault schedule, introspectable via Schedule(), so
//     any degraded run can be explained and replayed.
//   - Symmetry: the policy under test and the OPT proxy are wrapped
//     with identical schedules (see sim.Instance.Wrap), so both sides
//     of the empirical ratio see the same degradations.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Kind enumerates the fault processes. Values start at 1 so the zero
// value is invalid and cannot be used by accident.
type Kind int

// Enum of fault kinds.
const (
	// CoreSlowdown drops a port's effective speedup to the fault's
	// Value for the window — a degraded processing core.
	CoreSlowdown Kind = iota + 1
	// PortBlackout stops a port from transmitting for the window — a
	// dead link or stalled core.
	PortBlackout
	// BufferSqueeze transiently caps the effective shared buffer at
	// the fault's Value, forcing push-out policies to evict via their
	// own rule and non-push-out policies to tail-drop — reclaimed
	// memory.
	BufferSqueeze
	// BurstAmplify duplicates every packet of a slot's arrival burst
	// Value times and reorders the burst deterministically — replay
	// and reordering upstream of the switch.
	BurstAmplify
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CoreSlowdown:
		return "slowdown"
	case PortBlackout:
		return "blackout"
	case BufferSqueeze:
		return "squeeze"
	case BurstAmplify:
		return "amplify"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// portScoped reports whether the kind targets a single port.
func (k Kind) portScoped() bool { return k == CoreSlowdown || k == PortBlackout }

// Fault describes one recurring fault process: within every Period
// slots, one window of Duration slots is placed uniformly at random
// (seeded, hence reproducibly).
type Fault struct {
	// Kind selects the fault process.
	Kind Kind
	// Port targets one port for CoreSlowdown/PortBlackout; a negative
	// Port draws a (seeded) port per window, rotating the fault across
	// the switch. Ignored by BufferSqueeze and BurstAmplify.
	Port int
	// Value is kind-specific: the degraded speedup C' (CoreSlowdown,
	// >= 0), the squeezed buffer B' (BufferSqueeze, >= 1), or the
	// duplication factor (BurstAmplify, >= 1; 1 reorders without
	// duplicating). Unused by PortBlackout.
	Value int
	// Period is the recurrence interval in slots (>= 1).
	Period int64
	// Duration is the window length in slots (>= 1).
	Duration int64
}

// String renders the fault in ParseSpec's descriptor syntax, with every
// field explicit so equal renderings mean equal processes — the
// canonical form sweep ledger fingerprints hash.
func (f Fault) String() string {
	var b strings.Builder
	b.WriteString(f.Kind.String())
	if f.Kind.portScoped() {
		fmt.Fprintf(&b, ":port=%d", f.Port)
	}
	switch f.Kind {
	case CoreSlowdown:
		fmt.Fprintf(&b, ":c=%d", f.Value)
	case BufferSqueeze:
		fmt.Fprintf(&b, ":b=%d", f.Value)
	case BurstAmplify:
		fmt.Fprintf(&b, ":factor=%d", f.Value)
	}
	fmt.Fprintf(&b, ":period=%d:dur=%d", f.Period, f.Duration)
	return b.String()
}

// validate checks one fault process.
func (f Fault) validate() error {
	switch f.Kind {
	case CoreSlowdown:
		if f.Value < 0 {
			return fmt.Errorf("faults: slowdown speedup %d < 0", f.Value)
		}
	case PortBlackout:
		// no Value.
	case BufferSqueeze:
		if f.Value < 1 {
			return fmt.Errorf("faults: squeeze buffer %d < 1", f.Value)
		}
	case BurstAmplify:
		if f.Value < 1 {
			return fmt.Errorf("faults: amplify factor %d < 1", f.Value)
		}
	default:
		return fmt.Errorf("faults: unknown kind %d", int(f.Kind))
	}
	if f.Period < 1 {
		return fmt.Errorf("faults: %s period %d < 1", f.Kind, f.Period)
	}
	if f.Duration < 1 {
		return fmt.Errorf("faults: %s duration %d < 1", f.Kind, f.Duration)
	}
	if f.Port < -1 {
		return fmt.Errorf("faults: %s port %d < -1", f.Kind, f.Port)
	}
	return nil
}

// Spec is a composable fault plan: any number of fault processes over a
// common horizon. The zero Spec injects nothing and wraps any system as
// a strict pass-through.
type Spec struct {
	// Horizon is the number of slots the fault clock covers; windows
	// are drawn per period within it. Runs longer than Horizon see no
	// faults past it; drains never advance the fault clock.
	Horizon int64
	// Faults lists the concurrent fault processes; their windows may
	// overlap (the most degraded value wins per slot).
	Faults []Fault
}

// Empty reports whether the spec injects no faults at all.
func (sp Spec) Empty() bool { return len(sp.Faults) == 0 }

// String renders the spec canonically: the faults in ParseSpec syntax
// joined by ";" with the horizon appended, or "none" when empty. Equal
// strings mean equal specs, so sweep ledger fingerprints embed it in
// their cell-config digest.
func (sp Spec) String() string {
	if sp.Empty() {
		return "none"
	}
	parts := make([]string, 0, len(sp.Faults))
	for _, f := range sp.Faults {
		parts = append(parts, f.String())
	}
	return fmt.Sprintf("%s@horizon=%d", strings.Join(parts, ";"), sp.Horizon)
}

// Validate checks the spec.
func (sp Spec) Validate() error {
	if sp.Empty() {
		return nil
	}
	if sp.Horizon < 1 {
		return fmt.Errorf("faults: horizon %d < 1", sp.Horizon)
	}
	for i, f := range sp.Faults {
		if err := f.validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// Event is one concrete fault window of a generated schedule, active on
// slots in [Start, End).
type Event struct {
	// Kind is the fault process that generated the window.
	Kind Kind
	// Port is the affected port, or -1 for switch-wide kinds.
	Port int
	// Start and End delimit the active slots, half-open.
	Start, End int64
	// Value carries the kind-specific magnitude (see Fault.Value).
	Value int
}

// String renders the event compactly for logs and reports.
func (e Event) String() string {
	if e.Port >= 0 {
		return fmt.Sprintf("%s(port=%d,v=%d)@[%d,%d)", e.Kind, e.Port, e.Value, e.Start, e.End)
	}
	return fmt.Sprintf("%s(v=%d)@[%d,%d)", e.Kind, e.Value, e.Start, e.End)
}

// Schedule materializes the spec's full fault schedule for a switch
// with the given port count. Identical (spec, ports, seed) triples
// yield byte-identical schedules: every random draw comes from a
// per-fault RNG seeded by mixing seed with the fault's index.
func (sp Spec) Schedule(ports int, seed int64) []Event {
	var events []Event
	for fi, f := range sp.Faults {
		rng := rand.New(rand.NewSource(mix(seed, int64(fi))))
		for start := int64(0); start < sp.Horizon; start += f.Period {
			// Draw unconditionally so the stream is index-stable.
			var off int64
			if f.Period > f.Duration {
				off = rng.Int63n(f.Period - f.Duration + 1)
			}
			port := -1
			if f.Kind.portScoped() {
				port = f.Port
				if port < 0 {
					port = rng.Intn(ports)
				}
			}
			ws := start + off
			if ws >= sp.Horizon {
				continue
			}
			events = append(events, Event{
				Kind:  f.Kind,
				Port:  port,
				Start: ws,
				End:   ws + f.Duration,
				Value: f.Value,
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	return events
}

// CanonicalMix returns the benchmark fault mix used by the "faults"
// experiment panel and DegradationReport: a rotating core slowdown to
// half speed, a rotating port blackout, a squeeze to a quarter of the
// buffer, and 2x burst amplification — one of everything, at a cadence
// that keeps roughly a third of the run degraded.
func CanonicalMix(ports, buffer, speedup int, horizon int64) Spec {
	slow := speedup / 2
	if slow < 1 {
		slow = 1
	}
	squeezed := buffer / 4
	if squeezed < ports {
		squeezed = ports
	}
	return Spec{
		Horizon: horizon,
		Faults: []Fault{
			{Kind: CoreSlowdown, Port: -1, Value: slow, Period: 400, Duration: 120},
			{Kind: PortBlackout, Port: -1, Period: 800, Duration: 60},
			{Kind: BufferSqueeze, Value: squeezed, Period: 600, Duration: 150},
			{Kind: BurstAmplify, Value: 2, Period: 500, Duration: 100},
		},
	}
}

// mix derives a well-spread RNG seed from a base seed and a salt
// (splitmix64 finalizer).
func mix(seed, salt int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
