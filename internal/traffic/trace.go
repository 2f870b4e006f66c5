package traffic

import (
	"bufio"
	"fmt"
	"io"

	"smbm/internal/pkt"
)

// Trace is a materialized arrival sequence: one packet slice per slot.
type Trace [][]pkt.Packet

// Record materializes the next slots slots of src. Each burst is
// copied, since src may reuse its storage on the next call (the Source
// contract); an empty slot is recorded as nil.
func Record(src Source, slots int) Trace {
	tr := make(Trace, slots)
	for t := range tr {
		if burst := src.Next(); len(burst) > 0 {
			tr[t] = append([]pkt.Packet(nil), burst...)
		}
	}
	return tr
}

// Packets returns the total number of arrivals in the trace.
func (tr Trace) Packets() int {
	var n int
	for _, slot := range tr {
		n += len(slot)
	}
	return n
}

// Replay returns a Source that plays the trace back from the beginning,
// returning empty bursts once exhausted.
func (tr Trace) Replay() Source { return &replay{trace: tr} }

type replay struct {
	trace Trace
	pos   int
}

// Next returns the next slot's burst, nil once the trace is exhausted.
// The burst is the recorded slot itself, lent under the Source
// contract: the caller reads it in place and must not write to it. Its
// capacity is capped at its length, so an append by the caller
// reallocates instead of overwriting the slot recorded after it.
//
//smb:hotpath
func (r *replay) Next() []pkt.Packet {
	if r.pos >= len(r.trace) {
		return nil
	}
	slot := r.trace[r.pos]
	r.pos++
	return slot[:len(slot):len(slot)]
}

// traceHeader is the first line of the v1 text format.
const traceHeader = "# smbm-trace v1"

// Write serializes the trace in the text format, through WriteText.
func (tr Trace) Write(w io.Writer) error { return WriteText(w, tr.Replay(), len(tr)) }

// WriteText writes the next slots slots of src to w in a line-oriented
// text format:
//
//	# smbm-trace v1 slots=<n>
//	<slot> <port> <work> <value>
//
// one line per packet, slots ascending. Each burst is written as it is
// drawn, so memory stays O(burst) at any slot count. A slot count
// outside [0, 2³²−1], which StreamText would refuse, is refused before
// anything is written.
func WriteText(w io.Writer, src Source, slots int) error {
	if err := checkSlots(slots); err != nil {
		return fmt.Errorf("traffic: cannot write %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s slots=%d\n", traceHeader, slots); err != nil {
		return err
	}
	for t := 0; t < slots; t++ {
		for _, p := range src.Next() {
			if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", t, p.Port, p.Work, p.Value); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Concat concatenates traces in time.
func Concat(traces ...Trace) Trace {
	var total int
	for _, tr := range traces {
		total += len(tr)
	}
	out := make(Trace, 0, total)
	for _, tr := range traces {
		out = append(out, tr...)
	}
	return out
}

// Slots builds a trace directly from per-slot bursts; nil slices are
// silent slots. Convenience for tests and adversarial constructions.
func Slots(bursts ...[]pkt.Packet) Trace { return Trace(bursts) }
