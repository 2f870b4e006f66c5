package sim

// The checkpoint journal on its own: records written, the file closed
// (the stand-in for a process exit or crash), and the fold read back
// by the next open.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// testFP is the fingerprint every journal test opens under.
func testFP() sweepFingerprint {
	return sweepFingerprint{Sweep: "t", XLabel: "k", XsHash: "abc", Seeds: 2, BaseSeed: 42, Config: "cfg"}
}

// openTestJournal opens the journal in dir under testFP, closing it
// when the test ends.
func openTestJournal(t *testing.T, dir string) *journal {
	t.Helper()
	j, err := openJournal(dir, testFP())
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	t.Cleanup(func() { j.close() })
	return j
}

// writeComplete appends a complete record for cell (x, si) whose
// payload is the JSON string payload, failing the test on error.
func writeComplete(t *testing.T, j *journal, x, si int, payload string) {
	t.Helper()
	rec := record{Kind: kindComplete, X: x, SeedIndex: si, Results: json.RawMessage(strconv.Quote(payload))}
	if err := j.append(rec); err != nil {
		t.Fatalf("append complete: %v", err)
	}
}

// done returns the payload the fold holds for cell (x, si), "" for a
// cell with no complete record.
func done(j *journal, x, si int) string {
	return string(j.done[cellKey{x, si}])
}

func TestJournalLifecycle(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	cells := []cellKey{{1, 0}, {1, 1}, {2, 0}}
	for _, c := range cells {
		if got := done(j, c.x, c.si); got != "" {
			t.Fatalf("cell %v done in a fresh journal: %s", c, got)
		}
		writeComplete(t, j, c.x, c.si, strconv.Itoa(c.x)+"/"+strconv.Itoa(c.si))
	}
	j.close()

	j = openTestJournal(t, dir)
	for _, c := range cells {
		if want := strconv.Quote(strconv.Itoa(c.x) + "/" + strconv.Itoa(c.si)); done(j, c.x, c.si) != want {
			t.Fatalf("cell %v: payload %s, want %s", c, done(j, c.x, c.si), want)
		}
	}
	if lines, completes := len(journalLines(t, dir)), countRecords(t, dir, kindComplete); lines != 4 || completes != 3 {
		t.Fatalf("journal holds %d lines, %d completes; want the header and 3 completes", lines, completes)
	}
}

func TestJournalFingerprintMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	openTestJournal(t, dir).close()

	fp := testFP()
	fp.Seeds = 5
	if _, err := openJournal(dir, fp); err == nil || !strings.Contains(err.Error(), "seeds") {
		t.Fatalf("open with changed seeds = %v, want error naming the field", err)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	writeComplete(t, j, 1, 0, "ok")
	writeComplete(t, j, 2, 0, "torn")
	j.close()

	// Tear the final record: a crash mid-append leaves a partial line.
	path := filepath.Join(dir, journalFile)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	// The reopen keeps the intact complete before the tear and
	// truncates the torn tail away, so its cell is not done.
	j = openTestJournal(t, dir)
	if done(j, 1, 0) != `"ok"` || done(j, 2, 0) != "" {
		t.Fatalf("after the tear: cell 1 %q, cell 2 %q; want \"ok\" and not done", done(j, 1, 0), done(j, 2, 0))
	}
	writeComplete(t, j, 2, 0, "again")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("reopen left a malformed line: %q", line)
		}
	}
}

// TestJournalUnterminatedFinalRecordIsTorn pins the newline rule: a
// final record cut just before its newline parses, but its write did
// not finish, so it is dropped — else the next append would run on in
// the same line and corrupt the file.
func TestJournalUnterminatedFinalRecordIsTorn(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	writeComplete(t, j, 1, 0, "ok")
	j.close()
	path := filepath.Join(dir, journalFile)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	j = openTestJournal(t, dir)
	if got := done(j, 1, 0); got != "" {
		t.Fatalf("unterminated complete record counted: %s", got)
	}
	writeComplete(t, j, 1, 0, "again")
	j.close()
	if j = openTestJournal(t, dir); done(j, 1, 0) != `"again"` {
		t.Fatalf("rewritten cell reads %s", done(j, 1, 0))
	}
}

func TestJournalMidFileCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	writeComplete(t, j, 1, 0, "ok")
	j.close()

	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage followed by a valid record: corruption, not a torn tail.
	if _, err := f.WriteString("{garbage\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"complete","v":1,"sweep":"t","x":2,"seed_index":0,"results":"b"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := openJournal(dir, testFP()); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("open over mid-file corruption = %v, want corruption error", err)
	}
}

// TestJournalRefusesUnknownKind pins the forward-compatibility guard: a
// record kind this build does not know may change what a cell's state
// is, so the open refuses to read past it.
func TestJournalRefusesUnknownKind(t *testing.T) {
	dir := t.TempDir()
	openTestJournal(t, dir).close()
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"merge","v":1,"sweep":"t","x":1,"seed_index":0}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := openJournal(dir, testFP()); err == nil || !strings.Contains(err.Error(), `unknown record kind "merge"`) {
		t.Fatalf("open over an unknown kind = %v, want an error naming it", err)
	}
}

// TestJournalRejectsSecondLiveWriter pins the live-writer lock: two
// live runs (here, two handles — flock binds to the open file
// description, so the in-process case exercises the same kernel path)
// must never append to one journal. The second opener hard-fails while
// the first is live, and succeeds once the first closes — so a crashed
// or exited run's checkpoint stays reusable.
func TestJournalRejectsSecondLiveWriter(t *testing.T) {
	dir := t.TempDir()
	first := openTestJournal(t, dir)

	_, err := openJournal(dir, testFP())
	if err == nil {
		t.Fatalf("second open of a live journal succeeded")
	}
	if !strings.Contains(err.Error(), "live writer") {
		t.Fatalf("second open error does not name the live writer: %v", err)
	}
	if err := first.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	reopened, err := openJournal(dir, testFP())
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	reopened.close()
}

// TestJournalReadsLedgerRecords pins compatibility with journals older
// builds wrote: the retired multi-process ledger's records (token,
// worker and deadline_ms fields, heartbeat leases) and the lease,
// abandon and release records a checkpointed run wrote around every
// attempt, including a cell that failed often enough that those builds
// stopped running it. The fold reads only the completes, so every
// other cell is pending; a sweep resumed over such a journal runs
// exactly those cells, appends nothing but their completes, and
// matches a plain run.
func TestJournalReadsLedgerRecords(t *testing.T) {
	dir := t.TempDir()
	header, err := json.Marshal(record{Kind: kindHeader, V: 1, Sweep: "t", Header: &sweepFingerprint{Sweep: "t", XLabel: "k", XsHash: "abc", Seeds: 2, BaseSeed: 42, Config: "cfg"}})
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{
		string(header),
		`{"kind":"lease","v":1,"sweep":"t","x":1,"seed_index":0,"worker":"local","token":1,"attempt":1,"deadline_ms":1000}`,
		`{"kind":"lease","v":1,"sweep":"t","x":1,"seed_index":0,"worker":"local","token":1,"attempt":1,"deadline_ms":21000}`,
		`{"kind":"complete","v":1,"sweep":"t","x":1,"seed_index":0,"worker":"local","token":1,"attempt":1,"results":"a"}`,
		`{"kind":"lease","v":1,"sweep":"t","x":2,"seed_index":0,"worker":"local","token":1,"attempt":1,"deadline_ms":1000}`,
		`{"kind":"abandon","v":1,"sweep":"t","x":2,"seed_index":0,"worker":"local","token":1,"attempt":2,"error":"worker local restarted"}`,
		`{"kind":"lease","v":1,"sweep":"t","x":2,"seed_index":0,"worker":"local","token":2,"attempt":2,"deadline_ms":2000}`,
		`{"kind":"release","v":1,"sweep":"t","x":2,"seed_index":0,"worker":"local","token":2,"deadline_ms":23000}`,
		`{"kind":"lease","v":1,"sweep":"t","x":3,"seed_index":1,"attempt":1}`,
		`{"kind":"abandon","v":1,"sweep":"t","x":3,"seed_index":1,"attempt":1,"error":"boom"}`,
		`{"kind":"lease","v":1,"sweep":"t","x":3,"seed_index":1,"attempt":2}`,
		`{"kind":"complete","v":1,"sweep":"t","x":3,"seed_index":1,"attempt":2,"results":"c"}`,
		`{"kind":"lease","v":1,"sweep":"t","x":4,"seed_index":0,"attempt":1}`,
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := openTestJournal(t, dir)
	want := map[cellKey]json.RawMessage{{1, 0}: json.RawMessage(`"a"`), {3, 1}: json.RawMessage(`"c"`)}
	if !reflect.DeepEqual(j.done, want) {
		t.Errorf("fold = %v, want only the two completes", j.done)
	}
	j.close()

	// The same shapes around the real cells of a checkpointed sweep:
	// the cells of x=2 complete; x=4 seed[0] died once and was retried;
	// x=4 seed[1] was abandoned four times, which those builds never
	// ran again; x=8 seed[2] was released by a SIGINT; the rest never
	// started.
	ckpt := t.TempDir()
	if _, err := ckptSweep(ckpt).Run(); err != nil {
		t.Fatal(err)
	}
	var legacy []string
	for i, line := range journalLines(t, ckpt) {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		cell := `"sweep":"test","x":` + strconv.Itoa(rec.X) + `,"seed_index":` + strconv.Itoa(rec.SeedIndex)
		lease := func(n int) string { return `{"kind":"lease","v":1,` + cell + `,"attempt":` + strconv.Itoa(n) + `}` }
		switch {
		case i == 0:
			legacy = append(legacy, line)
		case rec.X == 2:
			legacy = append(legacy, lease(1), line)
		case rec.X == 4 && rec.SeedIndex == 0:
			legacy = append(legacy, lease(1), lease(2))
		case rec.X == 4 && rec.SeedIndex == 1:
			for n := 1; n <= 4; n++ {
				legacy = append(legacy, lease(n), `{"kind":"abandon","v":1,`+cell+`,"attempt":`+strconv.Itoa(n)+`,"error":"boom"}`)
			}
		case rec.X == 8 && rec.SeedIndex == 2:
			legacy = append(legacy, lease(1), `{"kind":"release","v":1,`+cell+`,"attempt":1}`)
		}
	}
	if err := os.WriteFile(filepath.Join(ckpt, journalFile), []byte(strings.Join(legacy, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var builds int32
	res, err := countBuilds(ckptSweep(ckpt), &builds).Run()
	if err != nil {
		t.Fatal(err)
	}
	if builds != 6 {
		t.Errorf("resume over a legacy journal built %d cells, want the 6 with no complete", builds)
	}
	if !reflect.DeepEqual(res, plainResult(t)) {
		t.Error("resume over a legacy journal differs from a plain run")
	}
	after := journalLines(t, ckpt)
	if !reflect.DeepEqual(after[:len(legacy)], legacy) {
		t.Fatal("resume rewrote the legacy records")
	}
	for _, line := range after[len(legacy):] {
		if !strings.Contains(line, `"kind":"complete"`) {
			t.Errorf("resume appended %s; only completes may be appended", line)
		}
	}
	if n := len(after) - len(legacy); n != 6 {
		t.Errorf("resume appended %d records, want 6 completes", n)
	}
}
