package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"smbm/internal/pkt"
)

// The trace readers: one streaming cursor per serialization. A cursor
// holds one slot's packets at a time, so replaying a 2·10⁶-slot file
// costs O(peak burst) memory. Records must be grouped by non-decreasing
// slot — exactly the order WriteText and WriteBinary emit — and an
// out-of-order record is a stream error rather than a backward insert.

// maxSlots bounds the slot count a trace header may declare: the binary
// format's 32-bit slot field, which the text format shares so both
// formats accept the same horizons. An unbounded text header of a few
// bytes could otherwise make a replay step empty slots for hours.
const maxSlots int64 = math.MaxUint32

// checkSlots refuses a slot count outside [0, maxSlots]. The readers
// refuse such a header, and the writers refuse to write one.
func checkSlots(slots int) error {
	if slots < 0 || int64(slots) > maxSlots {
		return fmt.Errorf("%d slots, outside [0,%d]", slots, maxSlots)
	}
	return nil
}

// StreamText opens a streaming cursor over the v1 text format,
// returning the cursor and the declared slot count. The reader is
// consumed as the cursor advances; it is not closed (wrap with a
// FileProvider for managed file lifetimes).
func StreamText(r io.Reader) (Cursor, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, 0, err
		}
		return nil, 0, fmt.Errorf("traffic: empty trace input")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, traceHeader) {
		return nil, 0, fmt.Errorf("traffic: bad trace header %q", header)
	}
	var slots int
	if _, err := fmt.Sscanf(header[len(traceHeader):], " slots=%d", &slots); err != nil {
		return nil, 0, fmt.Errorf("traffic: bad trace header %q: %v", header, err)
	}
	if err := checkSlots(slots); err != nil {
		return nil, 0, fmt.Errorf("traffic: trace header declares %w", err)
	}
	return &textStream{sc: sc, slots: slots, line: 1, pendingSlot: -1}, slots, nil
}

// textStream is the text-format streaming cursor.
type textStream struct {
	sc    *bufio.Scanner
	slots int
	line  int
	cur   int // next slot Next will emit

	pendingSlot int // slot of the stashed look-ahead record (-1 = none)
	pending     pkt.Packet
	scratch     []pkt.Packet // the slot Next is collecting

	err error
}

// fail records the first stream error; the cursor emits empty bursts
// from here on.
func (s *textStream) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// readRecord scans forward to the next packet record, returning its
// slot. ok is false at end of stream or on error. It parses the
// scanner's bytes in place: fields are runs of non-space runes, split
// as strings.Fields splits, a line whose first field starts with '#'
// is a comment, and each number goes through strconv.Atoi on a
// conversion that does not escape, so a well-formed record allocates
// nothing and a malformed one fails with Atoi's own error.
func (s *textStream) readRecord() (slot int, p pkt.Packet, ok bool) {
	for s.sc.Scan() {
		s.line++
		var (
			fields [4][]byte
			n      int
		)
		for f, rest := nextField(s.sc.Bytes()); f != nil; f, rest = nextField(rest) {
			if n < len(fields) {
				fields[n] = f
			}
			n++
		}
		if n == 0 || fields[0][0] == '#' {
			continue
		}
		if n != len(fields) {
			s.fail(fmt.Errorf("traffic: line %d: want 4 fields, got %d", s.line, n))
			return 0, pkt.Packet{}, false
		}
		var nums [4]int
		for i, f := range fields {
			v, err := strconv.Atoi(string(f))
			if err != nil {
				s.fail(fmt.Errorf("traffic: line %d: %v", s.line, err))
				return 0, pkt.Packet{}, false
			}
			nums[i] = v
		}
		t := nums[0]
		if t < 0 || t >= s.slots {
			s.fail(fmt.Errorf("traffic: line %d: slot %d out of [0,%d)", s.line, t, s.slots))
			return 0, pkt.Packet{}, false
		}
		return t, pkt.Packet{Port: nums[1], Work: nums[2], Value: nums[3]}, true
	}
	if err := s.sc.Err(); err != nil {
		s.fail(err)
	}
	return 0, pkt.Packet{}, false
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// nextField returns the first field of b — its first run of runes
// that are not unicode.IsSpace, with invalid UTF-8 bytes counting as
// non-space as in strings.Fields — and the bytes after it, or a nil
// field when b holds none.
func nextField(b []byte) (field, rest []byte) {
	start := -1
	for i := 0; i < len(b); {
		space, size := asciiSpace[b[i]] != 0, 1
		if b[i] >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRune(b[i:])
			space = unicode.IsSpace(r)
		}
		if start < 0 && !space {
			start = i
		} else if start >= 0 && space {
			return b[start:i], b[i:]
		}
		i += size
	}
	if start < 0 {
		return nil, nil
	}
	return b[start:], nil
}

// Next implements Source: the packets of the next slot, in file order,
// in a fresh slice. That is more than the Source contract promises, and
// callers that keep bursts across calls may rely on it. The packets
// collect in a scratch buffer the cursor keeps, so each non-empty slot
// costs one exact-size allocation.
func (s *textStream) Next() []pkt.Packet {
	if s.err != nil || s.cur >= s.slots {
		return nil
	}
	t := s.cur
	s.cur++
	s.scratch = s.scratch[:0]
	if s.pendingSlot >= 0 {
		if s.pendingSlot > t {
			return nil // stashed record belongs to a later slot
		}
		s.scratch = append(s.scratch, s.pending)
		s.pendingSlot = -1
	}
	for {
		slot, p, ok := s.readRecord()
		if !ok {
			if s.err != nil {
				return nil // a failing slot is never emitted in part
			}
			return s.emit()
		}
		switch {
		case slot == t:
			s.scratch = append(s.scratch, p)
		case slot > t:
			s.pendingSlot, s.pending = slot, p
			return s.emit()
		default:
			s.fail(fmt.Errorf("traffic: line %d: slot %d after slot %d (streaming requires non-decreasing slots)", s.line, slot, t))
			return nil
		}
	}
}

// emit copies the collected slot into a fresh slice (nil when empty).
func (s *textStream) emit() []pkt.Packet {
	if len(s.scratch) == 0 {
		return nil
	}
	return append([]pkt.Packet(nil), s.scratch...)
}

// Err implements Cursor.
func (s *textStream) Err() error { return s.err }

// Close implements Cursor: the cursor owns no resources.
func (s *textStream) Close() error { return nil }

// StreamBinary opens a streaming cursor over the v1 binary format,
// returning the cursor and the declared slot count. Like StreamText,
// records must be grouped by non-decreasing slot. The cursor is an
// OpenBinary stream.
func StreamBinary(r io.Reader) (Cursor, int, error) {
	s, slots, err := OpenBinary(r)
	if err != nil {
		return nil, 0, err
	}
	return s, slots, nil
}

// OpenBinary is StreamBinary returning the concrete cursor, whose
// AppendNext reads a slot into a caller-owned buffer.
func OpenBinary(r io.Reader) (*BinaryStream, int, error) {
	br := bufio.NewReader(r)
	slots, err := readBinaryHeader(br)
	if err != nil {
		return nil, 0, err
	}
	return &BinaryStream{br: br, slots: int(slots)}, int(slots), nil
}

// BinaryStream is the binary-format streaming cursor. It decodes
// records in place from its bufio.Reader's buffer and peeks at the
// first record past a slot without consuming it, so reading a slot
// allocates nothing beyond the slice it appends to.
type BinaryStream struct {
	br    *bufio.Reader
	slots int
	cur   int // next slot to emit
	err   error
}

// fail records the first stream error.
func (s *BinaryStream) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Next implements Source: the next slot's packets in a fresh slice
// (AppendNext(nil)). That is more than the Source contract promises, and
// callers that keep bursts across calls may rely on it; a caller that
// reads one slot at a time reuses its own buffer through AppendNext.
func (s *BinaryStream) Next() []pkt.Packet { return s.AppendNext(nil) }

// AppendNext appends the packets of the next slot to dst, in stream
// order, and returns the extended slice; a caller that passes the
// previous result back as dst[:0] reads the whole stream without
// allocating. A slot is complete once the first record of a later slot
// (or a clean end of input at a record boundary) is in view. If the
// stream fails instead — a record cut short, out of range or out of
// order — AppendNext records the sticky error, appends nothing for the
// slot, and appends nothing ever after.
func (s *BinaryStream) AppendNext(dst []pkt.Packet) []pkt.Packet {
	if s.err != nil || s.cur >= s.slots {
		return dst
	}
	t := uint32(s.cur)
	s.cur++
	base := len(dst)
	for {
		n := s.br.Buffered() &^ (recordSize - 1)
		if n == 0 {
			// Fewer than one whole record buffered: block until there is
			// one, or the input ends.
			if _, err := s.br.Peek(recordSize); err != nil {
				if err == io.EOF && s.br.Buffered() == 0 {
					return dst
				}
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				s.fail(fmt.Errorf("traffic: reading record: %w", err))
				return dst[:base]
			}
			n = s.br.Buffered() &^ (recordSize - 1)
		}
		// n <= Buffered, so neither this Peek nor the Discards below do
		// I/O or fail.
		buf, _ := s.br.Peek(n)
		used := 0
		for ; used < n; used += recordSize {
			slot, p := decodeRecord(buf[used : used+recordSize])
			if slot == t {
				dst = append(dst, p)
				continue
			}
			s.br.Discard(used)
			switch {
			case int(slot) >= s.slots:
				s.fail(fmt.Errorf("traffic: record slot %d out of [0,%d)", slot, s.slots))
			case slot < t:
				s.fail(fmt.Errorf("traffic: record slot %d after slot %d (streaming requires non-decreasing slots)", slot, t))
			default:
				return dst
			}
			return dst[:base]
		}
		s.br.Discard(used)
	}
}

// Err implements Cursor.
func (s *BinaryStream) Err() error { return s.err }

// Close implements Cursor.
func (s *BinaryStream) Close() error { return nil }

// StreamAny sniffs the input and opens the matching streaming cursor
// (text or binary), returning it with the declared slot count.
func StreamAny(r io.Reader) (Cursor, int, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryMagic))
	if err == nil && string(head) == string(binaryMagic) {
		return StreamBinary(br)
	}
	return StreamText(br)
}

// closingCursor attaches an owned resource (the backing file) to a
// streaming cursor.
type closingCursor struct {
	Cursor
	c io.Closer
}

// Close implements Cursor, releasing the stream's backing resource.
func (c closingCursor) Close() error {
	err := c.Cursor.Close()
	if cerr := c.c.Close(); err == nil {
		err = cerr
	}
	return err
}

// FileProvider streams a trace file (text or binary format) without
// materializing it: every Open re-opens the file and yields a fresh
// sequential cursor, so each replay reads the file independently in
// O(peak burst) memory regardless of the trace length.
type FileProvider struct {
	path  string
	slots int
}

// OpenFile sniffs the trace file's format and header and returns a
// Provider whose cursors stream the file record by record.
func OpenFile(path string) (*FileProvider, error) {
	p := &FileProvider{path: path}
	cur, slots, err := p.openCursor()
	if err != nil {
		return nil, err
	}
	cur.Close()
	p.slots = slots
	return p, nil
}

// Slots implements Provider.
func (p *FileProvider) Slots() int { return p.slots }

// Open implements Provider: re-open the file and stream it.
func (p *FileProvider) Open() (Cursor, error) {
	cur, _, err := p.openCursor()
	return cur, err
}

// openCursor opens the file and builds the format-matched cursor.
func (p *FileProvider) openCursor() (Cursor, int, error) {
	f, err := os.Open(p.path)
	if err != nil {
		return nil, 0, fmt.Errorf("traffic: %w", err)
	}
	cur, slots, err := StreamAny(f)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return closingCursor{Cursor: cur, c: f}, slots, nil
}

// FileProvider conformance check.
var _ Provider = (*FileProvider)(nil)
