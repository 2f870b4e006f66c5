package traffic

import (
	"bytes"
	"fmt"
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

func TestWriteReadRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("slots %d, want %d", len(got), len(tr))
	}
	for s := range tr {
		if len(got[s]) != len(tr[s]) {
			t.Fatalf("slot %d: %d packets, want %d", s, len(got[s]), len(tr[s]))
		}
		for i := range tr[s] {
			if got[s][i] != tr[s][i] {
				t.Fatalf("slot %d packet %d differs", s, i)
			}
		}
	}
}

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
		{"slot count above bound", fmt.Sprintf("# smbm-trace v1 slots=%d\n", MaxMaterializedSlots+1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadTrace(strings.NewReader(c.input)); err == nil {
				t.Error("no error")
			}
		})
	}
}

func TestReadTraceSkipsCommentsAndBlanks(t *testing.T) {
	input := "# smbm-trace v1 slots=2\n\n# comment\n1 0 1 1\n"
	tr, err := ReadTrace(strings.NewReader(input))
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
