package traffic

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"smbm/internal/pkt"
)

func sampleTrace() Trace {
	return Slots(
		[]pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(2, 3)},
		nil,
		[]pkt.Packet{pkt.NewValue(1, 5)},
	)
}

func TestTracePackets(t *testing.T) {
	if got := sampleTrace().Packets(); got != 3 {
		t.Errorf("Packets() = %d, want 3", got)
	}
	if got := (Trace{}).Packets(); got != 0 {
		t.Errorf("empty trace Packets() = %d", got)
	}
}

func TestReplay(t *testing.T) {
	tr := sampleTrace()
	src := tr.Replay()
	for s := range tr {
		got := src.Next()
		if len(got) != len(tr[s]) {
			t.Fatalf("slot %d: %d packets, want %d", s, len(got), len(tr[s]))
		}
		for i := range got {
			if got[i] != tr[s][i] {
				t.Fatalf("slot %d packet %d: %v != %v", s, i, got[i], tr[s][i])
			}
		}
	}
	if got := src.Next(); got != nil {
		t.Errorf("exhausted replay returned %v", got)
	}
	// The burst is borrowed: it is the trace slot itself, capped so an
	// append by the caller cannot overwrite the next slot.
	burst := tr.Replay().Next()
	if len(burst) == 0 || &burst[0] != &tr[0][0] {
		t.Fatal("replay copied the slot instead of lending it")
	}
	if len(burst) != cap(burst) {
		t.Fatalf("burst len %d != cap %d", len(burst), cap(burst))
	}
	// Lay slots 0 and 1 out back to back in one array, so an uncapped
	// append to slot 0 would land on slot 1.
	backing := []pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(1, 2)}
	adj := Slots(backing[:1], backing[1:])
	_ = append(adj.Replay().Next(), pkt.NewWork(3, 4))
	if adj[1][0] != pkt.NewWork(1, 2) {
		t.Errorf("append to a replayed burst overwrote tr[1]: %v", adj[1])
	}
}

// streamAll opens r with open (StreamText, StreamBinary or StreamAny)
// and records the first min(slots, limit) slots of the stream, copying
// each borrowed burst. It returns the recorded trace, the header's slot
// count and the header or stream error, if any.
func streamAll(open func(io.Reader) (Cursor, int, error), r io.Reader, limit int) (Trace, int, error) {
	cur, slots, err := open(r)
	if err != nil {
		return nil, 0, err
	}
	defer cur.Close()
	tr := make(Trace, min(slots, limit))
	for t := range tr {
		if burst := cur.Next(); len(burst) > 0 {
			tr[t] = append([]pkt.Packet(nil), burst...)
		}
	}
	return tr, slots, cur.Err()
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, _, err := streamAll(StreamText, &buf, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTraces(got, tr) {
		t.Fatalf("round trip: got %v, want %v", got, tr)
	}
}

// TestReadTraceErrors: the text reader refuses a bad header when it
// opens and a bad record as a sticky stream error.
func TestReadTraceErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad header", "nope\n"},
		{"bad slot count", "# smbm-trace v1 slots=x\n"},
		{"negative slots", "# smbm-trace v1 slots=-1\n"},
		{"short line", "# smbm-trace v1 slots=1\n0 1\n"},
		{"non-numeric", "# smbm-trace v1 slots=1\n0 a 1 1\n"},
		{"slot out of range", "# smbm-trace v1 slots=1\n5 0 1 1\n"},
		{"slot count beyond makeslice", "# smbm-trace v1 slots=99999999999999\n"},
		{"slot count above uint32", fmt.Sprintf("# smbm-trace v1 slots=%d\n", maxSlots+1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := streamAll(StreamText, strings.NewReader(c.input), math.MaxInt); err == nil {
				t.Error("no error")
			}
		})
	}
	// The bound is the binary format's slot field: a header at it opens.
	if _, slots, err := StreamText(strings.NewReader(fmt.Sprintf("# smbm-trace v1 slots=%d\n", maxSlots))); err != nil || int64(slots) != maxSlots {
		t.Errorf("header at the bound: slots %d, err %v", slots, err)
	}
}

// failSource is a Source whose every draw fails the test.
type failSource struct{ t *testing.T }

func (s failSource) Next() []pkt.Packet {
	s.t.Fatal("Next called")
	return nil
}

// TestWritersRefuseSlotCounts: both writers refuse a slot count their
// readers would refuse (negative, or beyond the binary header's uint32)
// before they write a byte or draw a slot.
func TestWritersRefuseSlotCounts(t *testing.T) {
	for _, w := range []struct {
		name  string
		write func(io.Writer, Source, int) error
	}{{"text", WriteText}, {"binary", WriteBinary}} {
		for _, slots := range []int{-1, 1 << 32} {
			var buf bytes.Buffer
			if err := w.write(&buf, failSource{t}, slots); err == nil {
				t.Errorf("%s writer accepted %d slots", w.name, slots)
			}
			if buf.Len() != 0 {
				t.Errorf("%s writer wrote %q for %d slots", w.name, buf.String(), slots)
			}
		}
	}
}

func TestReadTraceSkipsCommentsAndBlanks(t *testing.T) {
	input := "# smbm-trace v1 slots=2\n\n# comment\n1 0 1 1\n"
	tr, _, err := streamAll(StreamText, strings.NewReader(input), math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 || len(tr[0]) != 0 || len(tr[1]) != 1 {
		t.Errorf("parsed %v", tr)
	}
}

func TestConcatAndSilence(t *testing.T) {
	a := make(Trace, 2) // two silent slots
	b := sampleTrace()
	all := Concat(a, b)
	if len(all) != 5 {
		t.Fatalf("len = %d, want 5", len(all))
	}
	if all[0] != nil || len(all[2]) != 2 {
		t.Error("concat order broken")
	}
}
