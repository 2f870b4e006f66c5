package faults

import (
	"fmt"
	"math/rand"

	"smbm/internal/core"
	"smbm/internal/obs"
	"smbm/internal/pkt"
	"smbm/internal/sim"
)

// Throttled is the capability a System needs for CoreSlowdown and
// PortBlackout faults: per-port transmission-rate overrides.
// core.Switch and opt.SPQ both implement it.
type Throttled interface {
	// SetPortSpeedup overrides port i's per-slot speedup (0 = blacked
	// out, negative = restore nominal).
	SetPortSpeedup(i, c int)
	// ResetSpeedups restores every port to its configured speedup.
	ResetSpeedups()
}

// Squeezed is the capability a System needs for BufferSqueeze faults:
// transiently capping the effective shared buffer.
type Squeezed interface {
	// SetBufferLimit caps the effective buffer at b packets (<= 0
	// restores the configured size).
	SetBufferLimit(b int)
}

// amplifySalt separates the burst-amplification RNG stream from the
// schedule-generation streams.
const amplifySalt = 0x5eedfa17

// Injector wraps a sim.System with a deterministic fault schedule. It
// implements sim.System (and sim.BoundedDrainer), so it drops into
// RunTrace, Instance and Sweep unchanged; Name, Stats and Reset
// delegate to the wrapped system so reports are unaffected.
//
// The fault clock advances one tick per Step. Drains — the harness's
// periodic flushouts — do not advance it and run with all overrides
// cleared (a blacked-out port would otherwise never empty); overrides
// are re-applied on the next Step. A zero/empty Spec makes the
// Injector a strict pass-through.
type Injector struct {
	inner    sim.System
	ports    int
	seed     int64
	schedule []Event

	thr Throttled // non-nil iff the spec throttles ports
	sqz Squeezed  // non-nil iff the spec squeezes the buffer

	slot   int64
	next   int     // next schedule index to activate
	active []Event // windows covering the current slot
	dirty  bool    // overrides must be (re)applied before the next Step

	speedups []int // scratch: desired per-port speedup (-1 = nominal)

	// Optional observability recorder (see SetRecorder): counts each
	// fault-window activation in the KindFaultEvent lane, branch-on-nil.
	rec *obs.Recorder
}

var (
	_ sim.System         = (*Injector)(nil)
	_ sim.BoundedDrainer = (*Injector)(nil)
)

// New wraps sys with the spec's fault schedule for a switch with the
// given port count. It fails fast when the spec is invalid or when sys
// lacks a capability the spec needs (Throttled for slowdown/blackout,
// Squeezed for squeeze). Identical (spec, ports, seed) triples yield
// identical schedules regardless of the wrapped system.
func New(sys sim.System, spec Spec, ports int, seed int64) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ports < 1 && !spec.Empty() {
		return nil, fmt.Errorf("faults: ports %d < 1", ports)
	}
	in := &Injector{
		inner:    sys,
		ports:    ports,
		seed:     seed,
		schedule: spec.Schedule(ports, seed),
	}
	var needThr, needSqz bool
	for _, f := range spec.Faults {
		switch f.Kind {
		case CoreSlowdown, PortBlackout:
			needThr = true
		case BufferSqueeze:
			needSqz = true
		}
	}
	if needThr {
		thr, ok := sys.(Throttled)
		if !ok {
			return nil, fmt.Errorf("faults: system %s does not support port throttling (Throttled)", sys.Name())
		}
		in.thr = thr
		in.speedups = make([]int, ports)
	}
	if needSqz {
		sqz, ok := sys.(Squeezed)
		if !ok {
			return nil, fmt.Errorf("faults: system %s does not support buffer squeezing (Squeezed)", sys.Name())
		}
		in.sqz = sqz
	}
	return in, nil
}

// Schedule returns a copy of the materialized fault schedule, so a
// degraded run can be explained window by window.
func (in *Injector) Schedule() []Event {
	out := make([]Event, len(in.schedule))
	copy(out, in.schedule)
	return out
}

// SetRecorder attaches an observability recorder (nil detaches),
// implementing obs.Target. Each fault-window activation is counted in
// the KindFaultEvent lane of the window's port (switch-wide windows are
// attributed to port 0) and traced when the recorder traces. The
// attachment propagates to the wrapped system when it records too, so
// one attach at the outermost wrapper instruments the whole stack.
func (in *Injector) SetRecorder(r *obs.Recorder) {
	in.rec = r
	if t, ok := in.inner.(obs.Target); ok {
		t.SetRecorder(r)
	}
}

// Name delegates to the wrapped system, keeping report labels stable.
func (in *Injector) Name() string { return in.inner.Name() }

// Stats delegates to the wrapped system.
func (in *Injector) Stats() core.Stats { return in.inner.Stats() }

// Step applies the fault windows covering the current fault-clock tick
// — port throttles, buffer squeeze, burst amplification — then steps
// the wrapped system and advances the clock.
func (in *Injector) Step(arrivals []pkt.Packet) error {
	t := in.slot
	in.advance(t)
	if in.dirty {
		in.apply()
		in.dirty = false
	}
	err := in.inner.Step(in.amplified(t, arrivals))
	in.slot++
	return err
}

// advance updates the active window set for slot t, marking overrides
// dirty when it changes.
func (in *Injector) advance(t int64) {
	for in.next < len(in.schedule) && in.schedule[in.next].Start <= t {
		e := in.schedule[in.next]
		in.active = append(in.active, e)
		in.next++
		in.dirty = true
		if in.rec != nil {
			port := e.Port
			if port < 0 {
				port = 0 // switch-wide window: attribute to port 0
			}
			in.rec.Inc(port, obs.KindFaultEvent)
			in.rec.Trace(t, port, obs.KindFaultEvent, e.Value, 0)
		}
	}
	kept := in.active[:0]
	for _, e := range in.active {
		if e.End > t {
			kept = append(kept, e)
		} else {
			in.dirty = true
		}
	}
	in.active = kept
}

// apply pushes the active windows' degradations into the wrapped
// system: per-port minimum speedup across slowdowns/blackouts, minimum
// buffer across squeezes.
func (in *Injector) apply() {
	if in.thr != nil {
		for i := range in.speedups {
			in.speedups[i] = -1
		}
		for _, e := range in.active {
			switch e.Kind {
			case CoreSlowdown:
				if in.speedups[e.Port] < 0 || e.Value < in.speedups[e.Port] {
					in.speedups[e.Port] = e.Value
				}
			case PortBlackout:
				in.speedups[e.Port] = 0
			}
		}
		in.thr.ResetSpeedups()
		for i, c := range in.speedups {
			if c >= 0 {
				in.thr.SetPortSpeedup(i, c)
			}
		}
	}
	if in.sqz != nil {
		limit := 0
		for _, e := range in.active {
			if e.Kind == BufferSqueeze && (limit == 0 || e.Value < limit) {
				limit = e.Value
			}
		}
		in.sqz.SetBufferLimit(limit)
	}
}

// amplified returns the burst for slot t under any active BurstAmplify
// window: each packet duplicated factor times, then deterministically
// reordered by a per-slot RNG derived from the injector seed. The
// caller's slice is never mutated.
func (in *Injector) amplified(t int64, arrivals []pkt.Packet) []pkt.Packet {
	factor := 0
	for _, e := range in.active {
		if e.Kind == BurstAmplify && e.Value > factor {
			factor = e.Value
		}
	}
	if factor == 0 || len(arrivals) == 0 {
		return arrivals
	}
	out := make([]pkt.Packet, 0, len(arrivals)*factor)
	for i := 0; i < factor; i++ {
		out = append(out, arrivals...)
	}
	rng := rand.New(rand.NewSource(mix(mix(in.seed, amplifySalt), t)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// clearOverrides restores the wrapped system to nominal capacity and
// marks the overrides for re-application on the next Step.
func (in *Injector) clearOverrides() {
	if in.thr != nil {
		in.thr.ResetSpeedups()
	}
	if in.sqz != nil {
		in.sqz.SetBufferLimit(0)
	}
	in.dirty = true
}

// Drain clears all overrides (a blacked-out port would never empty)
// and delegates to the wrapped system. The fault clock does not
// advance: flushouts are measurement pauses, not simulated time, so
// every wrapped system sees the same schedule regardless of how long
// its drains take.
func (in *Injector) Drain() int {
	in.clearOverrides()
	return in.inner.Drain()
}

// DrainMax is Drain bounded to max slots, delegating to the wrapped
// system's own bound when it has one.
func (in *Injector) DrainMax(max int) (int, bool) {
	in.clearOverrides()
	if bd, ok := in.inner.(sim.BoundedDrainer); ok {
		return bd.DrainMax(max)
	}
	return in.inner.Drain(), true
}

// Reset restores the wrapped system and rewinds the fault clock to
// slot zero, so a reset run replays the identical schedule.
func (in *Injector) Reset() {
	in.inner.Reset()
	in.slot = 0
	in.next = 0
	in.active = in.active[:0]
	in.dirty = true
}

// Wrapper adapts a spec to sim.Instance.Wrap: every system of the
// instance (the OPT proxy and each policy switch) gets its own injector
// carrying the identical schedule, so all of them degrade in lockstep.
func Wrapper(spec Spec, ports int, seed int64) func(sim.System) (sim.System, error) {
	return func(sys sim.System) (sim.System, error) {
		if spec.Empty() {
			return sys, nil
		}
		return New(sys, spec, ports, seed)
	}
}
