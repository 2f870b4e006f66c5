package traffic

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"smbm/internal/pkt"
)

// FuzzReadTrace hardens the trace parser: arbitrary input must either
// fail cleanly or parse into a trace that round-trips through Write.
func FuzzReadTrace(f *testing.F) {
	f.Add("# smbm-trace v1 slots=2\n0 1 2 3\n1 0 1 1\n")
	f.Add("# smbm-trace v1 slots=0\n")
	f.Add("# smbm-trace v1 slots=1\n# comment\n\n0 0 1 1\n")
	f.Add("garbage")
	f.Add("# smbm-trace v1 slots=-3\n")
	f.Add("# smbm-trace v1 slots=1\n0 -1 0 99999999999999999999\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("Write after successful parse: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("round-trip re-parse: %v", err)
		}
		if len(back) != len(tr) || back.Packets() != tr.Packets() {
			t.Fatalf("round-trip changed shape: %d/%d slots, %d/%d packets",
				len(back), len(tr), back.Packets(), tr.Packets())
		}
	})
}

// FuzzTextRoundTrip drives the text serialization from the other
// direction: an arbitrary structured trace decoded from the fuzz bytes
// must survive Write → ReadTrace exactly, packet for packet, and the
// streaming reader must agree with the materializing one on the same
// bytes. (The binary format has the equivalent structured coverage in
// TestBinaryRoundTrip.)
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
		raw := buf.Bytes()
		back, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("ReadTrace of Write output: %v", err)
		}
		if len(back) != len(tr) {
			t.Fatalf("round-trip slots %d, want %d", len(back), len(tr))
		}
		for s := range tr {
			if len(back[s]) != len(tr[s]) {
				t.Fatalf("slot %d: %d packets, want %d", s, len(back[s]), len(tr[s]))
			}
			for j := range tr[s] {
				if back[s][j] != tr[s][j] {
					t.Fatalf("slot %d packet %d: %+v, want %+v", s, j, back[s][j], tr[s][j])
				}
			}
		}
		// Streaming reader must agree with the materializing one.
		cur, n, err := StreamText(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("StreamText of Write output: %v", err)
		}
		defer cur.Close()
		if n != slots {
			t.Fatalf("streamed slot count %d, want %d", n, slots)
		}
		for s := 0; s < n; s++ {
			burst := cur.Next()
			if len(burst) != len(tr[s]) {
				t.Fatalf("streamed slot %d: %d packets, want %d", s, len(burst), len(tr[s]))
			}
			for j := range burst {
				if burst[j] != tr[s][j] {
					t.Fatalf("streamed slot %d packet %d: %+v, want %+v", s, j, burst[j], tr[s][j])
				}
			}
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("stream error on Write output: %v", err)
		}
	})
}

// FuzzBinaryStream checks the streaming binary cursor against
// ReadBinaryTrace on the same bytes. The input is a slot-sorted trace,
// optionally with two adjacent records swapped (out of order) and cut
// at an arbitrary byte (a truncated tail). The cursor must emit exactly
// the slots that precede the first bad record — one out of order, out
// of range, or cut short — each equal to ReadBinaryTrace's decoding of
// the good prefix; from the slot where it meets the bad record on, it
// must emit nothing, with a sticky error. Slots alternate between Next
// and AppendNext onto a non-empty buffer.
func FuzzBinaryStream(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 3, 1, 0, 1, 1, 2, 2, 2, 2}, uint16(0xFFFF), uint16(0))
	f.Add(uint8(4), []byte{0, 1, 2, 3, 1, 0, 1, 1, 3, 2, 2, 2}, uint16(0xFFFF), uint16(1))
	f.Add(uint8(4), []byte{0, 1, 2, 3, 1, 0, 1, 1, 3, 2, 2, 2}, uint16(29), uint16(0))
	f.Add(uint8(2), []byte{0, 0, 0, 0, 0, 0, 0, 0}, uint16(26), uint16(0))
	f.Add(uint8(0), []byte{}, uint16(5), uint16(0))
	f.Fuzz(func(t *testing.T, nslots uint8, data []byte, cut, swap uint16) {
		slots := int(nslots)
		tr := make(Trace, slots)
		for i := 0; slots > 0 && i+4 <= len(data) && i < 4*256; i += 4 {
			s := int(data[i]) % slots
			tr[s] = append(tr[s], pkt.Packet{Port: int(data[i+1]), Work: int(data[i+2]), Value: int(data[i+3])})
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		raw := buf.Bytes()
		head := len(binaryMagic) + 4
		if nrec := (len(raw) - head) / recordSize; swap > 0 && nrec >= 2 {
			a := head + recordSize*(int(swap)%(nrec-1))
			var tmp [recordSize]byte
			copy(tmp[:], raw[a:])
			copy(raw[a:], raw[a+recordSize:a+2*recordSize])
			copy(raw[a+recordSize:], tmp[:])
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

		// The good prefix: whole records in slot order and in range. The
		// cursor fails on the first record past it while reading the slot
		// of the last good record (slot 0 if there is none).
		good, last := head, 0
		for ; good+recordSize <= len(raw); good += recordSize {
			s, _ := decodeRecord(raw[good:])
			if int(s) >= slots || int(s) < last {
				break
			}
			last = int(s)
		}
		fails := good != len(raw)
		want, err := ReadBinaryTrace(bytes.NewReader(raw[:good]))
		if err != nil {
			t.Fatalf("ReadBinaryTrace of the good prefix: %v", err)
		}

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
					t.Fatalf("slot %d: bad record at byte %d not reported", s, good)
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
