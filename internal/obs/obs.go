// Package obs is the engine's zero-overhead observability layer:
// per-policy, per-port decision counters and an optional bounded event
// tracer that make admission decisions countable and traceable.
//
// The paper's claims are statements about *why* policies win — LQD
// evicting from the longest queue, BPD dropping the biggest packet,
// NHDT's thresholds adapting — and end-of-run Stats only show the
// aggregate outcome. A Recorder attached to a core.Switch (and to a
// faults.Injector) counts every admission, tail-drop, push-out (with
// the work and value it discarded), head-of-line transmission and
// fault-window activation, per port, in one flat pre-sized []uint64.
//
// The overhead contract (DESIGN.md §12): recording is branch-on-nil at
// every instrumentation site, so a run without a Recorder attached pays
// one predictable pointer compare per decision — 0 allocs/op and within
// noise of BENCH_baseline.json — and an attached Recorder allocates
// only at construction, never on the hot path.
package obs

// Kind indexes one decision-counter lane. The numeric values are the
// in-memory layout of Recorder's flat counter slab and the wire order
// of Snapshot rendering; they are append-only.
type Kind uint8

// The counter lanes. KindAdmit/KindTailDrop/KindPushOut partition the
// policy's decisions; the remaining lanes quantify their consequences.
const (
	// KindAdmit counts packets the policy admitted (plain accepts and
	// push-out admissions alike).
	KindAdmit Kind = iota
	// KindTailDrop counts packets rejected on arrival.
	KindTailDrop
	// KindPushOut counts evictions, attributed to the victim queue's
	// port (not the arriving packet's).
	KindPushOut
	// KindPushedOutWork accumulates the residual work discarded by
	// push-outs: the evicted tail's remaining cycles in the processing
	// model (including partially-processed head-of-line work when the
	// tail was also the head), 1 per eviction in the value model.
	KindPushedOutWork
	// KindPushedOutValue accumulates the intrinsic value discarded by
	// push-outs: the evicted minimum value in the value model, 1 per
	// eviction in the processing model.
	KindPushedOutValue
	// KindHOLTransmit counts head-of-line completions: packets fully
	// processed and transmitted through the port.
	KindHOLTransmit
	// KindFaultEvent counts fault-schedule window activations hitting
	// the port (switch-wide windows are attributed to port 0).
	KindFaultEvent

	// NumKinds is the number of counter lanes; it sizes the flat slab.
	NumKinds
)

// String names the lane for dumps and tables.
func (k Kind) String() string {
	switch k {
	case KindAdmit:
		return "admit"
	case KindTailDrop:
		return "drop"
	case KindPushOut:
		return "pushout"
	case KindPushedOutWork:
		return "pushout-work"
	case KindPushedOutValue:
		return "pushout-value"
	case KindHOLTransmit:
		return "transmit"
	case KindFaultEvent:
		return "fault"
	default:
		return "kind?"
	}
}

// Target is the capability interface of engine components that can
// record into a Recorder: core.Switch (decision counters) and
// faults.Injector (fault-event hits) implement it. Passing nil detaches
// the recorder, restoring the zero-overhead disabled state.
type Target interface {
	// SetRecorder attaches r (nil detaches).
	SetRecorder(r *Recorder)
}

// Options configures observability for a replay (see sim.Instance.Obs).
type Options struct {
	// TraceEvents, when positive, bounds the per-replay decision-event
	// ring buffer; zero disables tracing (counters only).
	TraceEvents int
}

// Recorder accumulates per-port decision counters in one flat pre-sized
// slab (port-major: port·NumKinds + kind) and optionally traces events
// into a bounded ring. It is owned by the caller that attaches it — one
// Recorder per policy replay — and is not safe for concurrent use.
type Recorder struct {
	ports  int
	counts []uint64
	tracer *Tracer
}

// NewRecorder builds a recorder for a switch with the given port count.
// traceCap > 0 additionally attaches a bounded event ring of that
// capacity; 0 records counters only.
func NewRecorder(ports, traceCap int) *Recorder {
	r := &Recorder{
		ports:  ports,
		counts: make([]uint64, ports*int(NumKinds)),
	}
	if traceCap > 0 {
		r.tracer = NewTracer(traceCap)
	}
	return r
}

// Ports returns the port count the recorder was sized for.
func (r *Recorder) Ports() int { return r.ports }

// Inc bumps one counter lane for one port.
//
//smb:hotpath
func (r *Recorder) Inc(port int, k Kind) {
	r.counts[port*int(NumKinds)+int(k)]++
}

// Add accumulates delta into one counter lane for one port.
//
//smb:hotpath
func (r *Recorder) Add(port int, k Kind, delta uint64) {
	r.counts[port*int(NumKinds)+int(k)] += delta
}

// Trace records one decision event into the ring when tracing is
// enabled; without a tracer it is a single nil compare.
//
//smb:hotpath
func (r *Recorder) Trace(slot int64, port int, k Kind, work, value int) {
	if r.tracer == nil {
		return
	}
	r.tracer.Record(Event{Slot: slot, Port: port, Kind: k, Work: work, Value: value})
}

// SaveCounts copies the flat counter slab into dst, growing it as
// needed, and returns the (possibly reallocated) slice. Callers that
// reuse the returned slice allocate at most once per recorder.
func (r *Recorder) SaveCounts(dst []uint64) []uint64 {
	if cap(dst) < len(r.counts) {
		dst = make([]uint64, len(r.counts))
	}
	dst = dst[:len(r.counts)]
	copy(dst, r.counts)
	return dst
}

// Count returns one port's counter for lane k.
func (r *Recorder) Count(port int, k Kind) uint64 {
	return r.counts[port*int(NumKinds)+int(k)]
}

// Total sums lane k across all ports.
func (r *Recorder) Total(k Kind) uint64 {
	var t uint64
	for p := 0; p < r.ports; p++ {
		t += r.counts[p*int(NumKinds)+int(k)]
	}
	return t
}

// Reset zeroes every counter and rewinds the tracer, keeping the
// allocated slab so a recorder is reusable across replays.
func (r *Recorder) Reset() {
	for i := range r.counts {
		r.counts[i] = 0
	}
	if r.tracer != nil {
		r.tracer.Reset()
	}
}

// Snapshot renders the recorder into its JSON-serializable export form,
// including the traced events (chronological) when tracing is enabled.
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{
		Ports:   r.ports,
		PerPort: make([]KindCounts, r.ports),
	}
	for p := 0; p < r.ports; p++ {
		s.PerPort[p] = SlabCounts(r.counts, p)
		s.Totals.Accumulate(s.PerPort[p])
	}
	if r.tracer != nil {
		s.Events = r.tracer.Events()
		s.DroppedEvents = r.tracer.Dropped()
	}
	return s
}

// SlabCounts copies one port's lanes out of a flat counter slab in the
// Recorder's layout (port-major, NumKinds lanes per port; see
// SaveCounts) into the named struct.
func SlabCounts(counts []uint64, port int) KindCounts {
	base := port * int(NumKinds)
	return KindCounts{
		Admits:         counts[base+int(KindAdmit)],
		TailDrops:      counts[base+int(KindTailDrop)],
		PushOuts:       counts[base+int(KindPushOut)],
		PushedOutWork:  counts[base+int(KindPushedOutWork)],
		PushedOutValue: counts[base+int(KindPushedOutValue)],
		HOLTransmits:   counts[base+int(KindHOLTransmit)],
		FaultEvents:    counts[base+int(KindFaultEvent)],
	}
}

// KindCounts is one port's (or one policy's total) decision counters in
// named, JSON-friendly form.
type KindCounts struct {
	// Admits counts admitted packets (see KindAdmit).
	Admits uint64 `json:"admits"`
	// TailDrops counts rejected arrivals (see KindTailDrop).
	TailDrops uint64 `json:"tail_drops"`
	// PushOuts counts evictions (see KindPushOut).
	PushOuts uint64 `json:"push_outs"`
	// PushedOutWork is the residual work discarded by push-outs.
	PushedOutWork uint64 `json:"pushed_out_work"`
	// PushedOutValue is the intrinsic value discarded by push-outs.
	PushedOutValue uint64 `json:"pushed_out_value"`
	// HOLTransmits counts head-of-line completions.
	HOLTransmits uint64 `json:"hol_transmits"`
	// FaultEvents counts fault-window activations.
	FaultEvents uint64 `json:"fault_events"`
}

// Accumulate adds o into c lane by lane.
func (c *KindCounts) Accumulate(o KindCounts) {
	c.Admits += o.Admits
	c.TailDrops += o.TailDrops
	c.PushOuts += o.PushOuts
	c.PushedOutWork += o.PushedOutWork
	c.PushedOutValue += o.PushedOutValue
	c.HOLTransmits += o.HOLTransmits
	c.FaultEvents += o.FaultEvents
}

// Snapshot is the JSON-serializable export of one replay's observability
// data: per-port counters, their totals, and — when tracing was enabled
// — the ring's surviving events. It rides in sim.Result and the sweep
// checkpoint journal's complete records.
type Snapshot struct {
	// Ports is the port count the counters are indexed by.
	Ports int `json:"ports"`
	// PerPort holds port i's counters at index i.
	PerPort []KindCounts `json:"per_port"`
	// Totals sums PerPort lane by lane.
	Totals KindCounts `json:"totals"`
	// Events are the traced decision events in chronological order
	// (only the last ring-capacity events survive), empty when tracing
	// was disabled.
	Events []Event `json:"events,omitempty"`
	// DroppedEvents counts events the bounded ring overwrote.
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
}

// Balanced reports whether the snapshot's decision bookkeeping closes on
// every port after a final drain: every admitted packet must either have
// been pushed out or transmitted (admits − push-outs − transmits == 0).
// It returns the first offending port, or -1 when balanced.
func (s *Snapshot) Balanced() int {
	for p := range s.PerPort {
		c := s.PerPort[p]
		if c.Admits != c.PushOuts+c.HOLTransmits {
			return p
		}
	}
	return -1
}
