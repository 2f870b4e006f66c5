package sim

// The checkpoint journal on its own: records written, the file closed
// (the stand-in for a process exit or crash), and the fold read back
// by the next open.

import (
	"encoding/json"
	"os"
	"path/filepath"
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

// write appends one cell record, failing the test on error.
func write(t *testing.T, j *journal, kind string, x, si, attempt int, payload string) {
	t.Helper()
	rec := record{Kind: kind, X: x, SeedIndex: si, Attempt: attempt}
	switch kind {
	case kindComplete:
		rec.Results = json.RawMessage(strconv.Quote(payload))
	case kindAbandon:
		rec.Error = payload
	}
	if err := j.append(rec); err != nil {
		t.Fatalf("append %s: %v", kind, err)
	}
}

// state returns the fold of cell (x, si), the zero state for a cell
// with no records.
func state(j *journal, x, si int) cellState {
	if c := j.cells[cellKey{x, si}]; c != nil {
		return *c
	}
	return cellState{}
}

func TestJournalLifecycle(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	cells := []cellKey{{1, 0}, {1, 1}, {2, 0}}
	for _, c := range cells {
		if st := state(j, c.x, c.si); st.failed+1 != 1 {
			t.Fatalf("first claim of %v is attempt %d, want 1", c, st.failed+1)
		}
		write(t, j, kindLease, c.x, c.si, 1, "")
		write(t, j, kindComplete, c.x, c.si, 1, strconv.Itoa(c.x)+"/"+strconv.Itoa(c.si))
	}
	j.close()

	j = openTestJournal(t, dir)
	for _, c := range cells {
		st := state(j, c.x, c.si)
		if want := strconv.Quote(strconv.Itoa(c.x) + "/" + strconv.Itoa(c.si)); string(st.results) != want || st.failed != 0 {
			t.Fatalf("cell %v: payload %s, %d failed; want %s, 0", c, st.results, st.failed, want)
		}
	}
	if leases, completes := countRecords(t, dir, kindLease), countRecords(t, dir, kindComplete); leases != 3 || completes != 3 {
		t.Fatalf("journal holds %d leases / %d completes, want 3/3", leases, completes)
	}
}

func TestJournalAbandonRetryAndDegradation(t *testing.T) {
	dir := t.TempDir()
	const retries = 1 // two attempts in all
	j := openTestJournal(t, dir)
	write(t, j, kindLease, 1, 0, 1, "")
	write(t, j, kindAbandon, 1, 0, 1, "boom 1")
	j.close()

	j = openTestJournal(t, dir)
	st := state(j, 1, 0)
	if st.failed+1 != 2 || st.failed > retries {
		t.Fatalf("retry claim = attempt %d, degraded %v; want attempt 2, not degraded", st.failed+1, st.failed > retries)
	}
	write(t, j, kindLease, 1, 0, 2, "")
	write(t, j, kindAbandon, 1, 0, 2, "boom 2")
	j.close()

	// Two failures against a budget of one retry: degraded.
	j = openTestJournal(t, dir)
	st = state(j, 1, 0)
	if st.results != nil || st.failed <= retries {
		t.Fatalf("cell after two abandons: completed %v, %d failed; want degraded", st.results != nil, st.failed)
	}
	if st.failed != 2 || st.lastErr != "boom 2" {
		t.Fatalf("degraded = %d attempts, last error %q", st.failed, st.lastErr)
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
	write(t, j, kindLease, 1, 0, 1, "")
	write(t, j, kindComplete, 1, 0, 1, "ok")
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

	// The reopen keeps the intact lease before the tear — an attempt
	// that never finished — and truncates the torn tail away.
	j = openTestJournal(t, dir)
	if st := state(j, 1, 0); st.results != nil || st.failed != 1 {
		t.Fatalf("intact lease before the tear lost: %+v", st)
	}
	write(t, j, kindLease, 1, 0, 2, "")
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
	write(t, j, kindLease, 1, 0, 1, "")
	write(t, j, kindComplete, 1, 0, 1, "ok")
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
	if st := state(j, 1, 0); st.results != nil {
		t.Fatalf("unterminated complete record counted: %+v", st)
	}
	write(t, j, kindLease, 1, 0, 2, "")
	j.close()
	openTestJournal(t, dir)
}

func TestJournalMidFileCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	write(t, j, kindLease, 1, 0, 1, "")
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
	if _, err := f.WriteString(`{"kind":"abandon","v":1,"sweep":"t","x":1,"seed_index":0,"attempt":1}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := openJournal(dir, testFP()); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("open over mid-file corruption = %v, want corruption error", err)
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

// TestJournalReleaseSpendsNoAttempt pins the interrupted-run contract:
// a released cell counts no failed attempt, and its next claim is
// attempt 1 again.
func TestJournalReleaseSpendsNoAttempt(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	write(t, j, kindLease, 1, 0, 1, "")
	write(t, j, kindRelease, 1, 0, 1, "")
	j.close()

	j = openTestJournal(t, dir)
	if st := state(j, 1, 0); st.failed != 0 || st.failed+1 != 1 || st.open != 0 {
		t.Fatalf("after release: %d failed, next attempt %d, open %d; want 0/1/0", st.failed, st.failed+1, st.open)
	}
}

// TestJournalReopenCountsCrashedAttempt pins the restart contract: a
// run that dies holding a cell (close without a closing record stands
// in for the crash) spends that attempt, so the reopen offers the cell
// as attempt 2 while its completed cells are left alone; once attempt
// 2 completes, later reopens count the crash exactly once.
func TestJournalReopenCountsCrashedAttempt(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	write(t, j, kindLease, 0, 0, 1, "")
	write(t, j, kindComplete, 0, 0, 1, "done")
	write(t, j, kindLease, 1, 0, 1, "")
	j.close()

	j = openTestJournal(t, dir)
	st := state(j, 1, 0)
	if st.results != nil || st.failed != 1 || st.open != 0 || !strings.Contains(st.lastErr, "died") {
		t.Fatalf("crashed cell after reopen: %+v, want one spent attempt, none open", st)
	}
	if done := state(j, 0, 0); string(done.results) != `"done"` || done.failed != 0 {
		t.Fatalf("completed cell disturbed by the reopen: %+v", done)
	}
	write(t, j, kindLease, 1, 0, st.failed+1, "")
	write(t, j, kindComplete, 1, 0, st.failed+1, "retried")
	j.close()

	j = openTestJournal(t, dir)
	if st := state(j, 1, 0); string(st.results) != `"retried"` || st.failed != 1 {
		t.Fatalf("retried cell: %+v, want completed with one spent attempt", st)
	}
}

// TestJournalReadsLedgerRecords pins compatibility with journals the
// retired multi-process ledger wrote for a -checkpoint run: the token,
// worker and deadline_ms fields are ignored, a heartbeat's repeated
// lease under the same attempt is one attempt, and a restart's abandon
// and a release close their attempts as usual.
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
		`{"kind":"lease","v":1,"sweep":"t","x":2,"seed_index":0,"worker":"local","token":2,"attempt":2,"deadline_ms":22000}`,
		`{"kind":"release","v":1,"sweep":"t","x":2,"seed_index":0,"worker":"local","token":2,"deadline_ms":23000}`,
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := openTestJournal(t, dir)
	if st := state(j, 1, 0); string(st.results) != `"a"` || st.failed != 0 {
		t.Errorf("renewed then completed cell: %+v, want completed with no spent attempt", st)
	}
	if st := state(j, 2, 0); st.results != nil || st.failed != 1 || st.open != 0 {
		t.Errorf("abandoned then released cell: %+v, want one spent attempt, none open", st)
	}
}
