package traffic

import (
	"bytes"
	"io"
	"math"
	"testing"

	"smbm/internal/pkt"
)

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, _, err := streamAll(StreamBinary, &buf, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTraces(got, tr) {
		t.Fatalf("round trip: got %v, want %v", got, tr)
	}
}

// binaryRejects are binary-format inputs the reader must refuse, each
// at its header or as a stream error: TestBinaryRejects checks them,
// and FuzzReadTrace seeds its corpus with them.
func binaryRejects(tb testing.TB) []struct {
	name string
	raw  []byte
} {
	tb.Helper()
	var buf bytes.Buffer
	if err := Slots([]pkt.Packet{pkt.NewWork(0, 1)}).WriteBinary(&buf); err != nil {
		tb.Fatal(err)
	}
	outOfRange := bytes.Clone(buf.Bytes())
	outOfRange[len(outOfRange)-8] = 9 // corrupt the record's slot index
	return []struct {
		name string
		raw  []byte
	}{
		{"bad magic", []byte("NOPE!\nxxxx")},
		{"truncated header", []byte("SMBT1\n\x01")},
		{"slot out of range", outOfRange},
		{"truncated record", buf.Bytes()[:buf.Len()-3]},
	}
}

func TestBinaryRejects(t *testing.T) {
	for _, c := range binaryRejects(t) {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := streamAll(StreamBinary, bytes.NewReader(c.raw), math.MaxInt); err == nil {
				t.Errorf("%q accepted", c.raw)
			}
		})
	}
	t.Run("oversized fields", func(t *testing.T) {
		tr := Slots([]pkt.Packet{{Port: 1 << 17, Work: 1, Value: 1}})
		if err := tr.WriteBinary(&bytes.Buffer{}); err == nil {
			t.Error("oversized port accepted")
		}
	})
}

func BenchmarkWriteText(b *testing.B)   { benchWrite(b, Trace.Write) }
func BenchmarkWriteBinary(b *testing.B) { benchWrite(b, Trace.WriteBinary) }

func benchWrite(b *testing.B, write func(Trace, io.Writer) error) {
	b.Helper()
	g, err := NewMMPP(baseCfg())
	if err != nil {
		b.Fatal(err)
	}
	tr := Record(g, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := write(tr, &buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkReadText(b *testing.B)   { benchRead(b, Trace.Write, StreamText) }
func BenchmarkReadBinary(b *testing.B) { benchRead(b, Trace.WriteBinary, StreamBinary) }

// benchRead times draining a 2,000-slot MMPP trace through a streaming
// reader, from bytes encoded by write.
func benchRead(b *testing.B, write func(Trace, io.Writer) error, open func(io.Reader) (Cursor, int, error)) {
	b.Helper()
	g, err := NewMMPP(baseCfg())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := write(Record(g, 2000), &buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, slots, err := open(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < slots; t++ {
			cur.Next()
		}
		if err := cur.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
