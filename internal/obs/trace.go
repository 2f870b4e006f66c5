package obs

import (
	"bufio"
	"fmt"
	"io"
)

// Event is one traced decision: what the policy did to which port's
// queue at which slot, and the work/value of the packet it acted on
// (the arriving packet for admits and drops, the evicted packet for
// push-outs).
type Event struct {
	// Slot is the simulation slot of the decision.
	Slot int64 `json:"slot"`
	// Port is the affected queue's port.
	Port int `json:"port"`
	// Kind is the decision lane (admit, drop or pushout).
	Kind Kind `json:"kind"`
	// Work is the packet's required work (processing model; 1 in the
	// value model).
	Work int `json:"work"`
	// Value is the packet's intrinsic value (value model; 1 in the
	// processing model).
	Value int `json:"value"`
}

// Tracer is a bounded ring buffer of decision events: the last cap
// events survive, older ones are overwritten. The ring is pre-sized at
// construction so recording never allocates.
type Tracer struct {
	buf  []Event
	next int    // ring write index
	n    uint64 // total events ever recorded
}

// NewTracer builds a tracer keeping the last cap events (cap >= 1).
func NewTracer(cap int) *Tracer {
	if cap < 1 {
		cap = 1
	}
	return &Tracer{buf: make([]Event, cap)}
}

// Record appends one event, overwriting the oldest when full.
//
//smb:hotpath
func (t *Tracer) Record(ev Event) {
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	t.n++
}

// Len returns the number of events currently held (at most Cap).
func (t *Tracer) Len() int {
	if t.n < uint64(len(t.buf)) {
		return int(t.n)
	}
	return len(t.buf)
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t.n < uint64(len(t.buf)) {
		return 0
	}
	return t.n - uint64(len(t.buf))
}

// Reset empties the ring, keeping its capacity.
func (t *Tracer) Reset() {
	t.next = 0
	t.n = 0
}

// Events returns the surviving events oldest first.
func (t *Tracer) Events() []Event {
	n := t.Len()
	out := make([]Event, 0, n)
	if t.n > uint64(len(t.buf)) {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
		return out
	}
	return append(out, t.buf[:n]...)
}

// DumpEvents writes events as a self-describing text block — one
// header line followed by one whitespace-separated record per event —
// in the same line-oriented idiom as the traffic package's text trace
// writer, so dumps diff cleanly and grep/awk apply:
//
//	# smbm-obs-trace v1 label=<label> events=<kept> dropped=<overwritten>
//	<slot> <port> <kind> <work> <value>
//
// The writer is buffered internally; callers pass any io.Writer.
func DumpEvents(w io.Writer, label string, events []Event, dropped uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# smbm-obs-trace v1 label=%s events=%d dropped=%d\n",
		label, len(events), dropped); err != nil {
		return err
	}
	for _, ev := range events {
		if _, err := fmt.Fprintf(bw, "%d %d %s %d %d\n",
			ev.Slot, ev.Port, ev.Kind, ev.Work, ev.Value); err != nil {
			return err
		}
	}
	return bw.Flush()
}
