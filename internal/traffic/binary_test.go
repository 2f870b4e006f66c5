package traffic

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"smbm/internal/pkt"
)

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) || got.Packets() != tr.Packets() {
		t.Fatalf("shape changed: %d/%d slots, %d/%d packets", len(got), len(tr), got.Packets(), tr.Packets())
	}
	for s := range tr {
		for i := range tr[s] {
			if got[s][i] != tr[s][i] {
				t.Fatalf("slot %d packet %d: %v != %v", s, i, got[s][i], tr[s][i])
			}
		}
	}
}

func TestBinaryRejects(t *testing.T) {
	t.Run("bad magic", func(t *testing.T) {
		if _, err := ReadBinaryTrace(strings.NewReader("NOPE!\nxxxx")); err == nil {
			t.Error("bad magic accepted")
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := ReadBinaryTrace(strings.NewReader("SMBT1\n\x01")); err == nil {
			t.Error("truncated header accepted")
		}
	})
	t.Run("huge slot count", func(t *testing.T) {
		// A 10-byte header declaring 2^32−1 slots: refused before the
		// slot table is allocated.
		_, err := ReadBinaryTrace(strings.NewReader("SMBT1\n\xff\xff\xff\xff"))
		if err == nil || !strings.Contains(err.Error(), "OpenFile") {
			t.Errorf("err = %v, want a refusal pointing at the streaming path", err)
		}
	})
	t.Run("slot out of range", func(t *testing.T) {
		var buf bytes.Buffer
		tr := Slots([]pkt.Packet{pkt.New(0)})
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		raw[len(raw)-8] = 9 // corrupt the record's slot index
		if _, err := ReadBinaryTrace(bytes.NewReader(raw)); err == nil {
			t.Error("out-of-range slot accepted")
		}
	})
	t.Run("oversized fields", func(t *testing.T) {
		tr := Slots([]pkt.Packet{{Port: 1 << 17, Work: 1, Value: 1}})
		if err := tr.WriteBinary(&bytes.Buffer{}); err == nil {
			t.Error("oversized port accepted")
		}
	})
	t.Run("truncated record", func(t *testing.T) {
		var buf bytes.Buffer
		tr := Slots([]pkt.Packet{pkt.New(0)})
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBinaryTrace(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); err == nil {
			t.Error("truncated record accepted")
		}
	})
}

func TestReadAnyTrace(t *testing.T) {
	tr := sampleTrace()
	var text, bin bytes.Buffer
	if err := tr.Write(&text); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"text": &text, "binary": &bin} {
		got, err := ReadAnyTrace(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Packets() != tr.Packets() {
			t.Errorf("%s: %d packets, want %d", name, got.Packets(), tr.Packets())
		}
	}
	if _, err := ReadAnyTrace(strings.NewReader("junk")); err == nil {
		t.Error("junk accepted")
	}
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

func BenchmarkReadText(b *testing.B) {
	g, _ := NewMMPP(baseCfg())
	tr := Record(g, 2000)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTrace(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinary(b *testing.B) {
	g, _ := NewMMPP(baseCfg())
	tr := Record(g, 2000)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinaryTrace(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
