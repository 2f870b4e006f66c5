package lease

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock injected through Options.clock so
// expiry tests never sleep.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.UnixMilli(1_000_000_000)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testFP() Fingerprint {
	return Fingerprint{Sweep: "t", XLabel: "k", XsHash: "abc", Seeds: 2, BaseSeed: 42, Config: "cfg"}
}

func openWorker(t *testing.T, dir, worker string, clk *fakeClock, ttl time.Duration, retries int) *Ledger {
	t.Helper()
	o := Options{Dir: dir, Worker: worker, Fingerprint: testFP(), TTL: ttl, Retries: retries}
	if clk != nil {
		o.clock = clk.now
	}
	l, err := Open(o)
	if err != nil {
		t.Fatalf("Open(%s): %v", worker, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func payload(s string) json.RawMessage {
	return json.RawMessage(fmt.Sprintf("%q", s))
}

func TestSingleWorkerLifecycle(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	l := openWorker(t, dir, "a", clk, time.Minute, 3)
	cells := []Cell{{X: 1, SeedIndex: 0}, {X: 1, SeedIndex: 1}, {X: 2, SeedIndex: 0}}
	ctx := context.Background()

	for range cells {
		ls, st, err := l.Acquire(ctx, cells)
		if err != nil || st != StatusAcquired {
			t.Fatalf("Acquire = %v, %v, %v", ls, st, err)
		}
		if ls.Token != 1 || ls.Attempt != 1 {
			t.Fatalf("first claim got token %d attempt %d, want 1/1", ls.Token, ls.Attempt)
		}
		if err := l.Complete(ls, payload(ls.Cell.String())); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	if _, st, err := l.Acquire(ctx, cells); err != nil || st != StatusDone {
		t.Fatalf("Acquire after all complete = %v, %v, want StatusDone", st, err)
	}
	done, degraded, err := l.Merge(cells)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if len(done) != len(cells) || len(degraded) != 0 {
		t.Fatalf("Merge: %d done %d degraded, want %d/0", len(done), len(degraded), len(cells))
	}
	for _, c := range cells {
		if string(done[c]) != string(payload(c.String())) {
			t.Fatalf("cell %s payload = %s", c, done[c])
		}
	}
	counts := l.Counters()
	if counts.Leases != 3 || counts.Completes != 3 {
		t.Fatalf("counters = %+v, want 3 leases / 3 completes", counts)
	}
}

func TestExpiryReclaim(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	cells := []Cell{{X: 1, SeedIndex: 0}}
	ctx := context.Background()

	// Worker a claims the cell and "crashes": no complete, no renewal.
	a := openWorker(t, dir, "a", clk, time.Minute, 3)
	lsA, _, err := a.Acquire(ctx, cells)
	if err != nil {
		t.Fatalf("a.Acquire: %v", err)
	}

	// While the lease is live, b sees the cell leased and cannot claim
	// it; Acquire would block, so check the phase directly.
	b := openWorker(t, dir, "b", clk, time.Minute, 3)
	st, err := b.Scan()
	if err != nil {
		t.Fatalf("b.Scan: %v", err)
	}
	if p := st.Phase(cells[0], b.Retries()); p != PhaseLeased {
		t.Fatalf("phase while lease live = %v, want leased", p)
	}

	// Past the TTL the lease expires and b reclaims under token 2.
	clk.advance(2 * time.Minute)
	lsB, status, err := b.Acquire(ctx, cells)
	if err != nil || status != StatusAcquired {
		t.Fatalf("b.Acquire after expiry = %v, %v", status, err)
	}
	if lsB.Token != lsA.Token+1 {
		t.Fatalf("reclaim token = %d, want %d", lsB.Token, lsA.Token+1)
	}
	if lsB.Attempt != 2 {
		t.Fatalf("reclaim attempt = %d, want 2 (expiry consumed one)", lsB.Attempt)
	}
	if c := b.Counters(); c.Reclaims != 1 {
		t.Fatalf("b counters = %+v, want 1 reclaim", c)
	}
	if err := b.Complete(lsB, payload("b")); err != nil {
		t.Fatalf("b.Complete: %v", err)
	}
	done, _, err := b.Merge(cells)
	if err != nil || string(done[cells[0]]) != string(payload("b")) {
		t.Fatalf("Merge after reclaim = %s, %v", done[cells[0]], err)
	}
}

func TestZombieCannotClobberNewerComplete(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	cells := []Cell{{X: 7, SeedIndex: 0}}
	ctx := context.Background()

	a := openWorker(t, dir, "a", clk, time.Minute, 3)
	lsA, _, err := a.Acquire(ctx, cells)
	if err != nil {
		t.Fatalf("a.Acquire: %v", err)
	}

	// a hangs past its TTL; b reclaims and completes under token 2.
	clk.advance(2 * time.Minute)
	b := openWorker(t, dir, "b", clk, time.Minute, 3)
	lsB, _, err := b.Acquire(ctx, cells)
	if err != nil {
		t.Fatalf("b.Acquire: %v", err)
	}
	if err := b.Complete(lsB, payload("fresh")); err != nil {
		t.Fatalf("b.Complete: %v", err)
	}

	// The zombie wakes up and completes under its stale token. The
	// append succeeds (appends always do) but merge must keep b's
	// newer-token completion authoritative.
	if err := a.Complete(lsA, payload("stale")); err != nil {
		t.Fatalf("zombie Complete: %v", err)
	}
	done, _, err := b.Merge(cells)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if string(done[cells[0]]) != string(payload("fresh")) {
		t.Fatalf("merge kept %s, want the newer-token completion", done[cells[0]])
	}
}

func TestSameTokenRaceResolvesToSmallestWorker(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	cells := []Cell{{X: 3, SeedIndex: 0}}

	// Simulate the race window directly: both workers scanned the same
	// state (token 1 free) and both append a token-1 lease before
	// either verifies.
	a := openWorker(t, dir, "a", clk, time.Minute, 3)
	b := openWorker(t, dir, "b", clk, time.Minute, 3)
	ls := Lease{Cell: cells[0], Token: 1, Attempt: 1}
	if _, err := b.appendLease(ls); err != nil {
		t.Fatalf("b.appendLease: %v", err)
	}
	if _, err := a.appendLease(ls); err != nil {
		t.Fatalf("a.appendLease: %v", err)
	}
	for _, l := range []*Ledger{a, b} {
		st, err := l.Scan()
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		cs := st.Cell(cells[0])
		if cs.Holder != "a" || cs.HolderToken != 1 {
			t.Fatalf("%s sees holder %q token %d, want a/1", l.Worker(), cs.Holder, cs.HolderToken)
		}
	}
}

func TestAbandonRetryAndDegradation(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	cells := []Cell{{X: 1, SeedIndex: 0}}
	ctx := context.Background()
	l := openWorker(t, dir, "a", clk, time.Minute, 1) // one retry: 2 attempts total

	ls, _, err := l.Acquire(ctx, cells)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if err := l.Abandon(ls, "boom 1"); err != nil {
		t.Fatalf("Abandon: %v", err)
	}
	ls2, status, err := l.Acquire(ctx, cells)
	if err != nil || status != StatusAcquired {
		t.Fatalf("re-Acquire = %v, %v", status, err)
	}
	if ls2.Token != 2 || ls2.Attempt != 2 {
		t.Fatalf("retry claim = token %d attempt %d, want 2/2", ls2.Token, ls2.Attempt)
	}
	if err := l.Abandon(ls2, "boom 2"); err != nil {
		t.Fatalf("Abandon 2: %v", err)
	}

	// Two failures against a budget of one retry: degraded, and Acquire
	// reports the sweep done rather than retrying forever.
	if _, status, err := l.Acquire(ctx, cells); err != nil || status != StatusDone {
		t.Fatalf("Acquire on degraded cell = %v, %v, want StatusDone", status, err)
	}
	done, degraded, err := l.Merge(cells)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if len(done) != 0 || len(degraded) != 1 {
		t.Fatalf("Merge = %d done %d degraded, want 0/1", len(done), len(degraded))
	}
	d := degraded[0]
	if d.Cell != cells[0] || d.Attempts != 2 || d.LastError != "boom 2" {
		t.Fatalf("degraded = %+v", d)
	}
}

func TestFingerprintMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	openWorker(t, dir, "a", clk, time.Minute, 3)

	o := Options{Dir: dir, Worker: "b", Fingerprint: testFP(), clock: clk.now}
	o.Fingerprint.Seeds = 5
	if _, err := Open(o); err == nil || !strings.Contains(err.Error(), "seeds") {
		t.Fatalf("Open with changed seeds = %v, want error naming the field", err)
	}
}

func TestTornTailToleratedAndOwnFileTruncated(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	cells := []Cell{{X: 1, SeedIndex: 0}, {X: 2, SeedIndex: 0}}
	ctx := context.Background()

	a := openWorker(t, dir, "a", clk, time.Minute, 3)
	ls, _, err := a.Acquire(ctx, cells)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if err := a.Complete(ls, payload("ok")); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	a.Close()

	// Tear the final record: a crash mid-append leaves a partial line.
	path := filepath.Join(dir, "a"+ledgerExt)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	// Another worker's scan tolerates the torn tail and still sees the
	// intact records before it.
	b := openWorker(t, dir, "b", clk, time.Minute, 3)
	st, err := b.Scan()
	if err != nil {
		t.Fatalf("Scan over torn file: %v", err)
	}
	if cs := st.Cell(cells[0]); cs.Holder != "a" {
		t.Fatalf("intact lease before the tear lost: %+v", cs)
	}

	// The owner restarting truncates its own torn tail and appends
	// cleanly from there.
	a2 := openWorker(t, dir, "a", clk, time.Minute, 3)
	if _, err := a2.Scan(); err != nil {
		t.Fatalf("Scan after owner reopen: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("own-file reopen left a malformed line: %q", line)
		}
	}
}

func TestMidFileCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := openWorker(t, dir, "a", clk, time.Minute, 3)
	ls := Lease{Cell: Cell{X: 1}, Token: 1, Attempt: 1}
	if _, err := a.appendLease(ls); err != nil {
		t.Fatal(err)
	}
	a.Close()

	path := filepath.Join(dir, "a"+ledgerExt)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage followed by a valid record: corruption, not a torn tail.
	if _, err := f.WriteString("{garbage\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"abandon","v":1,"sweep":"t","x":1,"seed_index":0,"worker":"a","token":1}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, err = Open(Options{Dir: dir, Worker: "b", Fingerprint: testFP(), clock: clk.now})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Open over mid-file corruption = %v, want corruption error", err)
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	dir := t.TempDir()
	cells := []Cell{{X: 1, SeedIndex: 0}}
	ctx := context.Background()

	// Real clock: a short TTL with heartbeats at TTL/3 must hold the
	// lease across several TTLs of wall time.
	a := openWorker(t, dir, "a", nil, 60*time.Millisecond, 3)
	ls, _, err := a.Acquire(ctx, cells)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	stop := a.Heartbeat(ctx, ls)
	time.Sleep(200 * time.Millisecond)
	b := openWorker(t, dir, "b", nil, 60*time.Millisecond, 3)
	st, err := b.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if cs := st.Cell(cells[0]); cs.Holder != "a" {
		t.Fatalf("lease lapsed despite heartbeats: holder %q", cs.Holder)
	}
	if err := stop(); err != nil {
		t.Fatalf("heartbeat reported: %v", err)
	}
	if c := a.Counters(); c.Renewals == 0 {
		t.Fatalf("no renewals recorded: %+v", c)
	}
	if err := a.Complete(ls, payload("ok")); err != nil {
		t.Fatalf("Complete: %v", err)
	}
}

func TestAcquireBlocksWhileLeasedElsewhere(t *testing.T) {
	dir := t.TempDir()
	cells := []Cell{{X: 1, SeedIndex: 0}}
	ctx := context.Background()

	a := openWorker(t, dir, "a", nil, time.Minute, 3)
	lsA, _, err := a.Acquire(ctx, cells)
	if err != nil {
		t.Fatalf("a.Acquire: %v", err)
	}

	// b blocks while a holds the only cell, then returns StatusDone
	// once a completes it.
	b := openWorker(t, dir, "b", nil, time.Minute, 3)
	got := make(chan error, 1)
	go func() {
		_, status, err := b.Acquire(ctx, cells)
		if err == nil && status != StatusDone {
			err = fmt.Errorf("b acquired a held cell (status %v)", status)
		}
		got <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := a.Complete(lsA, payload("a")); err != nil {
		t.Fatalf("a.Complete: %v", err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b.Acquire never returned after the cell completed")
	}
	if c := b.Counters(); c.Waits == 0 {
		t.Fatalf("b never waited: %+v", c)
	}
}

func TestWorkerIDValidation(t *testing.T) {
	for _, bad := range []string{"", "../evil", "a b", ".hidden", "-dash"} {
		if _, err := Open(Options{Dir: t.TempDir(), Worker: bad, Fingerprint: testFP()}); err == nil {
			t.Fatalf("Open accepted worker ID %q", bad)
		}
	}
}

func TestIntraProcessHeldSet(t *testing.T) {
	dir := t.TempDir()
	cells := []Cell{{X: 1, SeedIndex: 0}}
	ctx := context.Background()
	l := openWorker(t, dir, "a", nil, time.Minute, 3)

	ls, _, err := l.Acquire(ctx, cells)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// A sibling goroutine of the same process must not claim the same
	// cell under the same token; with one cell it blocks until the
	// first completes.
	got := make(chan Status, 1)
	go func() {
		_, status, _ := l.Acquire(ctx, cells)
		got <- status
	}()
	time.Sleep(30 * time.Millisecond)
	if err := l.Complete(ls, payload("ok")); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	select {
	case status := <-got:
		if status != StatusDone {
			t.Fatalf("sibling got status %v, want StatusDone", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sibling Acquire never returned")
	}
}

// TestAcquireSkipsCellCompletedDuringClaim pins the claim race between
// sibling goroutines of one worker: B scans cell c as free; before B
// takes its in-process hold, A leases c, completes it and releases the
// hold. B's hold then succeeds and B appends a lease under its stale
// token — the token A completed under, so the verify scan shows B's own
// worker as the live holder. B must see the completion, drop the claim
// and report the sweep done instead of running c a second time. The
// interleaving is injected through the scanned hook, not timing.
func TestAcquireSkipsCellCompletedDuringClaim(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	cells := []Cell{{X: 1, SeedIndex: 0}}
	ctx := context.Background()
	l := openWorker(t, dir, "a", clk, time.Minute, 3)

	injected := false
	l.scanned = func(Cell) {
		if injected {
			return
		}
		injected = true
		// Sibling A runs its whole lease lifecycle inside B's window.
		ls, status, err := l.Acquire(ctx, cells)
		if err != nil || status != StatusAcquired {
			t.Errorf("sibling Acquire = %v, %v", status, err)
			return
		}
		if err := l.Complete(ls, payload("a")); err != nil {
			t.Errorf("sibling Complete: %v", err)
		}
	}
	ls, status, err := l.Acquire(ctx, cells)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if !injected {
		t.Fatal("scanned hook never ran")
	}
	if status != StatusDone {
		t.Fatalf("Acquire claimed completed cell %s (token %d, status %v), want StatusDone", ls.Cell, ls.Token, status)
	}
	if c := l.Counters(); c.Leases != 1 || c.Conflicts != 0 {
		t.Fatalf("counters = %+v, want the sibling's 1 lease and no conflicts", c)
	}
}

// TestOpenRejectsSecondLiveWriter pins the live-writer lock: two live
// processes (here, two handles — flock binds to the open file
// description, so the in-process case exercises the same kernel path)
// must never append to one journal. The second opener under the same
// identity hard-fails while the first is live, and succeeds once the
// first closes — so a crashed or exited worker's identity stays
// reusable.
func TestOpenRejectsSecondLiveWriter(t *testing.T) {
	dir := t.TempDir()
	first := openWorker(t, dir, "dup", nil, time.Minute, 3)

	_, err := Open(Options{Dir: dir, Worker: "dup", Fingerprint: testFP()})
	if err == nil {
		t.Fatalf("second Open under a live identity succeeded")
	}
	if !strings.Contains(err.Error(), "live writer") {
		t.Fatalf("second Open error does not name the live writer: %v", err)
	}
	// A different identity in the same ledger is unaffected.
	other := openWorker(t, dir, "dup2", nil, time.Minute, 3)
	other.Close()

	if err := first.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened, err := Open(Options{Dir: dir, Worker: "dup", Fingerprint: testFP()})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	reopened.Close()
}

// TestReleaseSpendsNoAttempt pins the interrupted-run contract: a
// released cell is free at once, counts no failed attempt — not even
// after its lease deadline passes — and is reclaimed as attempt 1 under
// the next token, not as a reclaim of a crashed worker's cell.
func TestReleaseSpendsNoAttempt(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	cells := []Cell{{X: 1, SeedIndex: 0}}
	ctx := context.Background()
	l := openWorker(t, dir, "a", clk, time.Minute, 3)

	ls, _, err := l.Acquire(ctx, cells)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if err := l.Release(ls); err != nil {
		t.Fatalf("Release: %v", err)
	}
	for _, wait := range []time.Duration{0, 2 * time.Minute} {
		clk.advance(wait)
		st, err := l.Scan()
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		cs := st.Cell(cells[0])
		if p := st.Phase(cells[0], l.Retries()); p != PhaseFree || cs.Failed != 0 || cs.NextAttempt != 1 || cs.TopExpired {
			t.Fatalf("after release (+%v): phase %v failed %d next attempt %d top expired %v, want free/0/1/false",
				wait, p, cs.Failed, cs.NextAttempt, cs.TopExpired)
		}
	}
	b := openWorker(t, dir, "b", clk, time.Minute, 3)
	lsB, status, err := b.Acquire(ctx, cells)
	if err != nil || status != StatusAcquired {
		t.Fatalf("b.Acquire = %v, %v", status, err)
	}
	if lsB.Token != 2 || lsB.Attempt != 1 {
		t.Fatalf("claim after release = token %d attempt %d, want 2/1", lsB.Token, lsB.Attempt)
	}
	if c := b.Counters(); c.Reclaims != 0 {
		t.Fatalf("b counters = %+v, want no reclaim of a released cell", c)
	}
}

// TestReleaseAfterExpirySpendsTheAttempt pins that a release only counts
// while its lease is live: a hung worker whose lease expired — and was
// reclaimed under the next token — cannot take back the failed attempt
// by releasing late, neither before nor after the reclaim completes.
func TestReleaseAfterExpirySpendsTheAttempt(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	cells := []Cell{{X: 1, SeedIndex: 0}}
	ctx := context.Background()
	a := openWorker(t, dir, "a", clk, time.Minute, 3)
	b := openWorker(t, dir, "b", clk, time.Minute, 3)

	lsA, _, err := a.Acquire(ctx, cells)
	if err != nil {
		t.Fatalf("a.Acquire: %v", err)
	}
	clk.advance(2 * time.Minute)
	if err := a.Release(lsA); err != nil {
		t.Fatalf("late Release: %v", err)
	}
	st, err := b.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if cs := st.Cell(cells[0]); cs.Failed != 1 || cs.NextAttempt != 2 || !cs.TopExpired {
		t.Fatalf("after late release: failed %d next attempt %d top expired %v, want 1/2/true",
			cs.Failed, cs.NextAttempt, cs.TopExpired)
	}

	lsB, _, err := b.Acquire(ctx, cells)
	if err != nil {
		t.Fatalf("b.Acquire: %v", err)
	}
	if lsB.Token != 2 || lsB.Attempt != 2 {
		t.Fatalf("reclaim = token %d attempt %d, want 2/2", lsB.Token, lsB.Attempt)
	}
	if err := a.Release(lsA); err != nil {
		t.Fatalf("late Release after reclaim: %v", err)
	}
	if st, err = b.Scan(); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if cs := st.Cell(cells[0]); cs.Holder != "b" || cs.HolderToken != 2 || cs.Failed != 1 {
		t.Fatalf("after late release over a reclaim: %+v, want b holding token 2 with 1 failed attempt", cs)
	}
}

// TestReopenAbandonsCrashedIncarnationLeases pins the restart contract:
// a worker that dies holding a lease (Close without Complete stands in
// for the crash) and reopens under the same identity gets the cell back
// at once — no TTL wait — as attempt 2, while its completed cells and
// another worker's live lease are left alone.
func TestReopenAbandonsCrashedIncarnationLeases(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	done, mine, theirs := Cell{X: 0, SeedIndex: 0}, Cell{X: 1, SeedIndex: 0}, Cell{X: 2, SeedIndex: 0}
	ctx := context.Background()

	b := openWorker(t, dir, "b", clk, time.Minute, 3)
	if _, _, err := b.Acquire(ctx, []Cell{theirs}); err != nil {
		t.Fatalf("b.Acquire: %v", err)
	}
	a := openWorker(t, dir, "a", clk, time.Minute, 3)
	for _, c := range []Cell{done, mine} {
		ls, _, err := a.Acquire(ctx, []Cell{c})
		if err != nil {
			t.Fatalf("a.Acquire(%s): %v", c, err)
		}
		if c == done {
			if err := a.Complete(ls, payload("done")); err != nil {
				t.Fatalf("a.Complete: %v", err)
			}
		}
	}
	a.Close()

	a2 := openWorker(t, dir, "a", clk, time.Minute, 3)
	// Check the phase first: on a still-leased cell Acquire would block
	// for as long as the fake clock stands still.
	st, err := a2.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if p := st.Phase(mine, a2.Retries()); p != PhaseFree {
		t.Fatalf("crashed incarnation's cell is %v after reopen, want free", p)
	}
	ls, status, err := a2.Acquire(ctx, []Cell{mine})
	if err != nil || status != StatusAcquired {
		t.Fatalf("reopened a.Acquire = %v, %v", status, err)
	}
	if ls.Token != 2 || ls.Attempt != 2 {
		t.Fatalf("reclaim after restart = token %d attempt %d, want 2/2", ls.Token, ls.Attempt)
	}
	if c := a2.Counters(); c.Abandons != 1 {
		t.Fatalf("reopened a counters = %+v, want 1 abandon", c)
	}
	if st, err = a2.Scan(); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if cs := st.Cell(theirs); cs.Holder != "b" || cs.Failed != 0 {
		t.Fatalf("b's live lease disturbed by a's restart: %+v", cs)
	}
}
