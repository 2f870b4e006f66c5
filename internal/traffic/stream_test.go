package traffic

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"smbm/internal/pkt"
)

// streamTestTrace is a small trace exercising empty slots, multi-packet
// slots and a trailing silent slot.
func streamTestTrace() Trace {
	return Slots(
		[]pkt.Packet{{Port: 0, Work: 1, Value: 3}, {Port: 2, Work: 2, Value: 1}},
		nil,
		[]pkt.Packet{{Port: 1, Work: 4, Value: 7}},
		[]pkt.Packet{{Port: 3, Work: 1, Value: 1}, {Port: 3, Work: 1, Value: 2}, {Port: 0, Work: 2, Value: 5}},
		nil,
	)
}

// drainCursor replays cur for slots slots and returns the materialized
// result, failing the test on a cursor error.
func drainCursor(t *testing.T, cur Cursor, slots int) Trace {
	t.Helper()
	out := make(Trace, slots)
	for i := 0; i < slots; i++ {
		burst := cur.Next()
		if len(burst) > 0 {
			out[i] = burst
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	return out
}

// equalTraces compares two traces slot by slot, treating nil and empty
// bursts as equal.
func equalTraces(a, b Trace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestStreamTextRoundTrip(t *testing.T) {
	tr := streamTestTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	cur, slots, err := StreamText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if slots != len(tr) {
		t.Fatalf("slots %d, want %d", slots, len(tr))
	}
	if got := drainCursor(t, cur, slots); !equalTraces(got, tr) {
		t.Fatalf("streamed text trace diverged:\n got %v\nwant %v", got, tr)
	}
}

func TestStreamBinaryRoundTrip(t *testing.T) {
	tr := streamTestTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	cur, slots, err := StreamBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if slots != len(tr) {
		t.Fatalf("slots %d, want %d", slots, len(tr))
	}
	if got := drainCursor(t, cur, slots); !equalTraces(got, tr) {
		t.Fatalf("streamed binary trace diverged:\n got %v\nwant %v", got, tr)
	}
}

func TestStreamAnySniffsFormat(t *testing.T) {
	tr := streamTestTrace()
	for _, tc := range []struct {
		name  string
		write func(Trace, *bytes.Buffer) error
	}{
		{"text", func(tr Trace, b *bytes.Buffer) error { return tr.Write(b) }},
		{"binary", func(tr Trace, b *bytes.Buffer) error { return tr.WriteBinary(b) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(tr, &buf); err != nil {
				t.Fatal(err)
			}
			cur, slots, err := StreamAny(&buf)
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			if got := drainCursor(t, cur, slots); !equalTraces(got, tr) {
				t.Fatalf("StreamAny(%s) diverged", tc.name)
			}
		})
	}
}

func TestStreamTextRejectsOutOfOrder(t *testing.T) {
	in := "# smbm-trace v1 slots=3\n2 0 1 1\n0 0 1 1\n"
	cur, slots, err := StreamText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; i < slots; i++ {
		cur.Next()
	}
	if cur.Err() == nil {
		t.Fatal("out-of-order record not reported")
	}
}

func TestStreamBinaryRejectsOutOfOrder(t *testing.T) {
	tr := Slots(
		[]pkt.Packet{{Port: 0, Work: 1, Value: 1}},
		[]pkt.Packet{{Port: 1, Work: 1, Value: 1}},
	)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	// Swap the two 8-byte records after the header so slots decrease.
	b := buf.Bytes()
	head := len(binaryMagic) + 4
	r0 := append([]byte(nil), b[head:head+8]...)
	copy(b[head:head+8], b[head+8:head+16])
	copy(b[head+8:head+16], r0)
	cur, slots, err := StreamBinary(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; i < slots; i++ {
		cur.Next()
	}
	if cur.Err() == nil {
		t.Fatal("out-of-order record not reported")
	}
}

func TestFileProviderStreamsIndependentCursors(t *testing.T) {
	tr := streamTestTrace()
	for _, tc := range []struct {
		name  string
		write func(Trace, *os.File) error
	}{
		{"text", func(tr Trace, f *os.File) error { return tr.Write(f) }},
		{"binary", func(tr Trace, f *os.File) error { return tr.WriteBinary(f) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace."+tc.name)
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.write(tr, f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			p, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if p.Slots() != len(tr) {
				t.Fatalf("Slots %d, want %d", p.Slots(), len(tr))
			}
			// Two interleaved cursors must not disturb each other.
			c1, err := p.Open()
			if err != nil {
				t.Fatal(err)
			}
			defer c1.Close()
			c2, err := p.Open()
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			got1 := make(Trace, 0, len(tr))
			got2 := make(Trace, 0, len(tr))
			for i := 0; i < len(tr); i++ {
				got1 = append(got1, c1.Next())
				got2 = append(got2, c2.Next())
			}
			if err := c1.Err(); err != nil {
				t.Fatal(err)
			}
			if err := c2.Err(); err != nil {
				t.Fatal(err)
			}
			if !equalTraces(got1, tr) || !equalTraces(got2, tr) {
				t.Fatal("interleaved file cursors diverged from the trace")
			}
		})
	}
}

func TestOpenFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(path, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Fatal("garbage file accepted")
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestMMPPProviderRegeneratesIdenticalStreams(t *testing.T) {
	cfg := MMPPConfig{
		Sources:      20,
		LambdaOn:     0.4,
		POnOff:       0.2,
		POffOn:       0.3,
		Label:        LabelValueUniform,
		Ports:        4,
		MaxLabel:     6,
		PortAffinity: true,
		Seed:         7,
	}
	const slots = 200
	p, err := NewMMPPProvider(cfg, slots)
	if err != nil {
		t.Fatal(err)
	}
	if p.Slots() != slots {
		t.Fatalf("Slots %d, want %d", p.Slots(), slots)
	}
	// Reference: a directly recorded trace of the same spec.
	gen, err := NewMMPP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Record(gen, slots)
	for i := 0; i < 2; i++ {
		cur, err := p.Open()
		if err != nil {
			t.Fatal(err)
		}
		got := drainCursor(t, cur, slots)
		cur.Close()
		if !equalTraces(got, want) {
			t.Fatalf("cursor %d diverged from the recorded spec", i)
		}
	}
	if _, err := NewMMPPProvider(MMPPConfig{}, 10); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := NewMMPPProvider(cfg, -1); err == nil {
		t.Fatal("negative slot count accepted")
	}
}

func TestTraceIsItsOwnProvider(t *testing.T) {
	tr := streamTestTrace()
	var p Provider = tr
	if p.Slots() != len(tr) {
		t.Fatalf("Slots %d, want %d", p.Slots(), len(tr))
	}
	cur, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if got := drainCursor(t, cur, len(tr)); !equalTraces(got, tr) {
		t.Fatal("trace replay cursor diverged")
	}
}

func TestRepeatProvider(t *testing.T) {
	round := Slots(
		[]pkt.Packet{{Port: 0, Work: 1, Value: 2}},
		nil,
		[]pkt.Packet{{Port: 1, Work: 2, Value: 1}},
	)
	r := Repeat{Round: round, Rounds: 3}
	want := Concat(round, round, round)
	if r.Slots() != len(want) {
		t.Fatalf("Slots %d, want %d", r.Slots(), len(want))
	}
	cur, err := r.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if got := drainCursor(t, cur, r.Slots()); !equalTraces(got, want) {
		t.Fatal("repeat cursor diverged from the concatenated rounds")
	}
	if (Repeat{Round: round, Rounds: -1}).Slots() != 0 {
		t.Fatal("negative rounds should yield an empty stream")
	}
	empty := Repeat{Rounds: 5}
	cur2, err := empty.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	if b := cur2.Next(); len(b) != 0 {
		t.Fatalf("empty round emitted %v", b)
	}
}

// TestStreamedEqualsMaterializedFormats is the format-level differential:
// for a seeded MMPP trace, the streaming readers must reproduce exactly
// what the materializing readers parse, over both serializations.
func TestStreamedEqualsMaterializedFormats(t *testing.T) {
	cfg := MMPPConfig{
		Sources:      30,
		LambdaOn:     0.5,
		POnOff:       0.2,
		POffOn:       0.3,
		Label:        LabelWorkByPort,
		Ports:        4,
		MaxLabel:     4,
		PortWork:     []int{1, 2, 3, 4},
		PortAffinity: true,
		Seed:         11,
	}
	gen, err := NewMMPP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := Record(gen, 300)

	var text, bin bytes.Buffer
	if err := tr.Write(&text); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}

	mat, err := ReadTrace(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cur, slots, err := StreamText(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	streamed := drainCursor(t, cur, slots)
	cur.Close()
	if !reflect.DeepEqual(Trace(nilNormalize(mat)), Trace(nilNormalize(streamed))) {
		t.Fatal("text: streamed != materialized")
	}

	matB, err := ReadBinaryTrace(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	curB, slotsB, err := StreamBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	streamedB := drainCursor(t, curB, slotsB)
	curB.Close()
	if !equalTraces(matB, streamedB) {
		t.Fatal("binary: streamed != materialized")
	}
}

// nilNormalize maps empty bursts to nil so DeepEqual compares content,
// not allocation shape.
func nilNormalize(tr Trace) Trace {
	out := make(Trace, len(tr))
	for i, s := range tr {
		if len(s) > 0 {
			out[i] = s
		}
	}
	return out
}

// longBinaryTrace encodes a seeded MMPP trace of the given length in the
// binary format, returning the trace and its bytes.
func longBinaryTrace(t *testing.T, slots int) (Trace, []byte) {
	t.Helper()
	g, err := NewMMPP(MMPPConfig{
		Sources: 16, LambdaOn: 1.5, POnOff: 0.1, POffOn: 0.2,
		Label: LabelWorkByPort, Ports: 8, MaxLabel: 4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := Record(g, slots)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// TestAppendNextZeroAllocs pins the daemon's slot read: with a reused
// buffer, AppendNext decodes a slot without allocating.
func TestAppendNextZeroAllocs(t *testing.T) {
	tr, raw := longBinaryTrace(t, 2000)
	cur, slots, err := OpenBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]pkt.Packet, 0, 256)
	slot := 0
	read := func() {
		buf = cur.AppendNext(buf[:0])
		if !slices.Equal(buf, tr[slot]) {
			t.Fatalf("slot %d = %v, want %v", slot, buf, tr[slot])
		}
		slot++
	}
	if allocs := testing.AllocsPerRun(slots-1, read); allocs != 0 {
		t.Errorf("AppendNext allocates %.2f times per slot, want 0", allocs)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryNextResultsDoNotAlias keeps every Next result of a long
// stream and checks them all at the end: each is caller-owned, so no
// later slot may overwrite an earlier one.
func TestBinaryNextResultsDoNotAlias(t *testing.T) {
	tr, raw := longBinaryTrace(t, 500)
	cur, slots, err := StreamBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := drainCursor(t, cur, slots); !equalTraces(got, tr) {
		t.Fatal("Next results changed after later slots were read")
	}
}
