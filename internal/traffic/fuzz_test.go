package traffic

import (
	"bytes"
	"io"
	"math"
	"slices"
	"testing"

	"smbm/internal/pkt"
)

// fuzzRecordSlots is the number of leading slots FuzzReadTrace reads
// per input: a work budget, since a header may declare up to 2³²−1
// slots. The header itself is parsed and checked whatever it declares.
const fuzzRecordSlots = 4096

// FuzzReadTrace hardens the trace readers: arbitrary bytes, in either
// format, through StreamAny. An input is either refused — at its header,
// or by a sticky stream error after which the cursor emits nothing — or
// its slots re-encode and stream back exactly, in the text format and,
// when the binary writer takes every field, in the binary one.
func FuzzReadTrace(f *testing.F) {
	for _, s := range []string{
		"# smbm-trace v1 slots=2\n0 1 2 3\n1 0 1 1\n",
		"# smbm-trace v1 slots=0\n",
		"# smbm-trace v1 slots=1\n# comment\n\n0 0 1 1\n",
		"garbage",
		"# smbm-trace v1 slots=-3\n",
		"# smbm-trace v1 slots=99999999999999\n",
		"# smbm-trace v1 slots=1\n0 -1 0 99999999999999999999\n",
		"# smbm-trace v1 slots=1\n0 0 0 0\n0", // a bad record after a good one in its slot
	} {
		f.Add([]byte(s))
	}
	for _, c := range binaryRejects(f) {
		f.Add(c.raw)
	}
	f.Add([]byte("SMBT1\n\xff\xff\xff\xff")) // the largest slot count, no records
	f.Fuzz(func(t *testing.T, input []byte) {
		cur, slots, err := StreamAny(bytes.NewReader(input))
		if err != nil {
			return
		}
		defer cur.Close()
		tr := make(Trace, min(slots, fuzzRecordSlots))
		var failed error
		for s := range tr {
			burst := cur.Next()
			if err := cur.Err(); err != nil {
				if len(burst) > 0 || (failed != nil && err != failed) {
					t.Fatalf("slot %d: failed cursor emitted %d packets, error %v (first %v)", s, len(burst), err, failed)
				}
				failed = err
				continue
			}
			tr[s] = append([]pkt.Packet(nil), burst...)
		}
		if failed != nil {
			return
		}
		for _, format := range []struct {
			name  string
			write func(Trace, io.Writer) error
			open  func(io.Reader) (Cursor, int, error)
		}{
			{"text", Trace.Write, StreamText},
			{"binary", Trace.WriteBinary, StreamBinary},
		} {
			var buf bytes.Buffer
			if err := format.write(tr, &buf); err != nil {
				if format.name == "text" {
					t.Fatalf("text Write: %v", err)
				}
				continue // a field wider than the binary record (TestBinaryRejects)
			}
			back, n, err := streamAll(format.open, &buf, math.MaxInt)
			if err != nil || n != len(tr) || !equalTraces(back, tr) {
				t.Fatalf("%s round trip: %d slots, err %v; got %v, want %v", format.name, n, err, back, tr)
			}
		}
	})
}

// FuzzTextRoundTrip drives the text serialization from the other
// direction: an arbitrary structured trace decoded from the fuzz bytes
// must survive Write → StreamText exactly, packet for packet. (The
// binary format has the equivalent structured coverage in
// FuzzBinaryStream.)
func FuzzTextRoundTrip(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 3, 1, 0, 1, 1})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(0), []byte{0, 0, 0, 0})
	f.Add(uint8(5), []byte{4, 255, 128, 7, 4, 1, 1, 1, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, nslots uint8, data []byte) {
		slots := int(nslots)
		tr := make(Trace, slots)
		// Decode 4-byte records (slot, port, work, value); the slot byte
		// is reduced modulo the slot count so every record is in range.
		for i := 0; i+4 <= len(data) && i < 4*256; i += 4 {
			if slots == 0 {
				break
			}
			s := int(data[i]) % slots
			tr[s] = append(tr[s], pkt.Packet{
				Port:  int(data[i+1]),
				Work:  int(data[i+2]),
				Value: int(data[i+3]),
			})
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
		back, n, err := streamAll(StreamText, &buf, math.MaxInt)
		if err != nil || n != slots || !equalTraces(back, tr) {
			t.Fatalf("round trip: %d slots, err %v; got %v, want %v", n, err, back, tr)
		}
	})
}

// FuzzBinaryStream checks the streaming binary cursor against the
// trace it encodes. The input is a slot-sorted trace, optionally with
// two adjacent records swapped (out of order) and cut at an arbitrary
// byte (a truncated tail); the swap and the cut apply to the encoded
// record list as to the bytes. The cursor must emit exactly the slots
// that precede the first bad record — one out of order or cut short —
// each equal to that record list's good prefix; from the slot where it
// meets the bad record on, it must emit nothing, with a sticky error.
// Slots alternate between Next and AppendNext onto a non-empty buffer.
func FuzzBinaryStream(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 3, 1, 0, 1, 1, 2, 2, 2, 2}, uint16(0xFFFF), uint16(0))
	f.Add(uint8(4), []byte{0, 1, 2, 3, 1, 0, 1, 1, 3, 2, 2, 2}, uint16(0xFFFF), uint16(1))
	f.Add(uint8(4), []byte{0, 1, 2, 3, 1, 0, 1, 1, 3, 2, 2, 2}, uint16(29), uint16(0))
	f.Add(uint8(2), []byte{0, 0, 0, 0, 0, 0, 0, 0}, uint16(26), uint16(0))
	f.Add(uint8(0), []byte{}, uint16(5), uint16(0))
	f.Fuzz(func(t *testing.T, nslots uint8, data []byte, cut, swap uint16) {
		type record struct {
			slot int
			p    pkt.Packet
		}
		slots := int(nslots)
		tr := make(Trace, slots)
		for i := 0; slots > 0 && i+4 <= len(data) && i < 4*256; i += 4 {
			s := int(data[i]) % slots
			tr[s] = append(tr[s], pkt.Packet{Port: int(data[i+1]), Work: int(data[i+2]), Value: int(data[i+3])})
		}
		var recs []record // in file order
		for s, burst := range tr {
			for _, p := range burst {
				recs = append(recs, record{s, p})
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		raw := buf.Bytes()
		head := len(binaryMagic) + 4
		if nrec := len(recs); swap > 0 && nrec >= 2 {
			i := int(swap) % (nrec - 1)
			a := head + recordSize*i
			var tmp [recordSize]byte
			copy(tmp[:], raw[a:])
			copy(raw[a:], raw[a+recordSize:a+2*recordSize])
			copy(raw[a+recordSize:], tmp[:])
			recs[i], recs[i+1] = recs[i+1], recs[i]
		}
		if int(cut) < len(raw) {
			raw = raw[:cut]
		}

		c, n, err := StreamBinary(bytes.NewReader(raw))
		if len(raw) < head {
			if err == nil {
				t.Fatalf("header cut at %d bytes accepted", len(raw))
			}
			return
		}
		if err != nil || n != slots {
			t.Fatalf("StreamBinary: slots %d, err %v; want %d, nil", n, err, slots)
		}
		if n == 0 {
			return // the cursor reads no records
		}
		cur := c.(*BinaryStream)

		// The good prefix: whole records in slot order. The cursor fails
		// on the first record past it — or on a cut-short tail — while
		// reading the slot of the last good record (slot 0 if none).
		recs = recs[:(len(raw)-head)/recordSize]
		want := make(Trace, slots)
		good, last := 0, 0
		for ; good < len(recs) && recs[good].slot >= last; good++ {
			last = recs[good].slot
			want[last] = append(want[last], recs[good].p)
		}
		fails := good < len(recs) || (len(raw)-head)%recordSize != 0

		sentinel := pkt.Packet{Port: 9, Work: 9, Value: 9}
		var firstErr error
		for s := 0; s < n; s++ {
			var burst []pkt.Packet
			if s%2 == 0 {
				burst = cur.Next()
			} else {
				got := cur.AppendNext([]pkt.Packet{sentinel})
				if len(got) == 0 || got[0] != sentinel {
					t.Fatalf("slot %d: AppendNext clobbered the caller's prefix", s)
				}
				burst = got[1:]
			}
			if fails && s >= last {
				if cur.Err() == nil {
					t.Fatalf("slot %d: bad record %d not reported", s, good)
				}
				if firstErr == nil {
					firstErr = cur.Err()
				}
				if cur.Err() != firstErr {
					t.Fatalf("slot %d: error changed from %v to %v", s, firstErr, cur.Err())
				}
				if len(burst) != 0 {
					t.Fatalf("slot %d: failed cursor emitted %d packets", s, len(burst))
				}
				continue
			}
			if err := cur.Err(); err != nil {
				t.Fatalf("slot %d: unexpected error %v", s, err)
			}
			if !slices.Equal(burst, want[s]) {
				t.Fatalf("slot %d: streamed %v, want %v", s, burst, want[s])
			}
		}
	})
}
