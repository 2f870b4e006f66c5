package traffic

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

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

// MaxMaterializedSlots bounds the slot count ReadTrace and
// ReadBinaryTrace accept from a trace header. Both allocate the whole
// slot table before the first record, so an unchecked header of a few
// bytes could demand any amount of memory. The bound is 8× the paper's
// 2·10⁶-slot traces; longer traces stream through OpenFile in memory
// independent of their length.
const MaxMaterializedSlots = 1 << 24

// checkMaterializedSlots refuses a header slot count above
// MaxMaterializedSlots, pointing at the streaming path.
func checkMaterializedSlots(slots int) error {
	if slots > MaxMaterializedSlots {
		return fmt.Errorf("traffic: trace header declares %d slots, above the %d a materialized trace may hold; stream the file instead (tracegen -in, traffic.OpenFile)", slots, MaxMaterializedSlots)
	}
	return nil
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
// drawn, so memory stays O(burst) at any slot count.
func WriteText(w io.Writer, src Source, slots int) error {
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

// ReadTrace parses the text format produced by WriteText.
func ReadTrace(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("traffic: empty trace input")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, traceHeader) {
		return nil, fmt.Errorf("traffic: bad trace header %q", header)
	}
	var slots int
	if _, err := fmt.Sscanf(header[len(traceHeader):], " slots=%d", &slots); err != nil {
		return nil, fmt.Errorf("traffic: bad trace header %q: %v", header, err)
	}
	if slots < 0 {
		return nil, fmt.Errorf("traffic: negative slot count %d", slots)
	}
	if err := checkMaterializedSlots(slots); err != nil {
		return nil, err
	}
	tr := make(Trace, slots)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			return nil, fmt.Errorf("traffic: line %d: want 4 fields, got %d", line, len(fields))
		}
		nums := make([]int, 4)
		for i, f := range fields {
			n, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("traffic: line %d: %v", line, err)
			}
			nums[i] = n
		}
		t := nums[0]
		if t < 0 || t >= slots {
			return nil, fmt.Errorf("traffic: line %d: slot %d out of [0,%d)", line, t, slots)
		}
		tr[t] = append(tr[t], pkt.Packet{Port: nums[1], Work: nums[2], Value: nums[3]})
	}
	return tr, sc.Err()
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
