package lease

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"

	"smbm/internal/obs"
)

// ledgerExt is the worker journal file suffix.
const ledgerExt = ".jsonl"

// Backoff envelope for lease contention and leased-elsewhere waits:
// capped exponential with ±50% seeded jitter, so a fleet of workers
// that collide never retries in lockstep.
const (
	backoffBase = 25 * time.Millisecond
	backoffCap  = 2 * time.Second
)

// Defaults for zero Options fields.
const (
	// DefaultTTL is the default lease expiry: long enough that a
	// healthy worker's heartbeats (every TTL/3) always land, short
	// enough that a crashed worker's cells are reclaimed promptly.
	DefaultTTL = time.Minute
	// DefaultRetries is the default per-cell retry budget: a cell is
	// degraded after 1+DefaultRetries failed attempts.
	DefaultRetries = 3
)

// workerIDRx constrains worker IDs to safe file-name material.
var workerIDRx = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// Options configures Open.
type Options struct {
	// Dir is the shared ledger directory (created if absent).
	Dir string
	// Worker is this process's unique ledger identity; it names the
	// worker's journal file, so two live workers must never share one.
	Worker string
	// Fingerprint pins the ledger to one sweep configuration.
	Fingerprint Fingerprint
	// TTL is the lease expiry horizon (0 = DefaultTTL).
	TTL time.Duration
	// Retries is the per-cell retry budget: a cell is degraded once its
	// failed attempts exceed Retries (0 = DefaultRetries; negative
	// means no retries at all).
	Retries int

	// clock overrides wall time in tests.
	clock func() time.Time
}

// Lease is one acquired cell claim.
type Lease struct {
	// Cell is the claimed cell.
	Cell Cell
	// Token is the claim's fencing token.
	Token uint64
	// Attempt is the 1-based attempt number this claim represents.
	Attempt int
}

// Status reports how an Acquire call resolved.
type Status int

// Acquire outcomes.
const (
	// StatusAcquired means the returned Lease is held.
	StatusAcquired Status = iota
	// StatusDone means every cell is completed or degraded: there is no
	// work left in this sweep for any worker.
	StatusDone
)

// Ledger is one worker's handle on a shared lease ledger. The handle is
// safe for concurrent use by the worker's own goroutines (appends are
// serialized and an in-process held-set keeps them off each other's
// cells); the cross-process protocol needs no locks at all.
type Ledger struct {
	dir     string
	worker  string
	fp      Fingerprint
	ttl     time.Duration
	retries int
	clock   func() time.Time

	mu     sync.Mutex
	f      *os.File
	rng    *rand.Rand
	held   map[Cell]bool
	counts obs.LeaseCounts

	// scanned, when set, runs after Acquire's scan picks a free cell and
	// before it takes the in-process hold — the window in which a
	// sibling goroutine can lease, complete and release that cell.
	// Tests set it to inject that interleaving deterministically.
	scanned func(Cell)
}

// Open joins (or creates) the ledger at o.Dir as worker o.Worker. If
// the worker's journal file already exists — a restart under the same
// identity — its headers are verified against the fingerprint and a
// torn final line (the crash artifact of the previous incarnation) is
// truncated away; the single-writer discipline makes that safe. Any
// lease still live under this identity belongs to that crashed
// incarnation, so Open abandons it: the crash spends one attempt, as it
// would by expiry, but the cell is free at once instead of after the
// TTL.
//
// Open enforces that discipline: it takes an exclusive flock on the
// journal and hard-fails if another live process already holds it, so
// two workers that end up with the same identity (pid reuse after a
// restart, a copy-pasted -worker-id) are detected at startup instead
// of silently interleaving appends — and instead of the second opener
// truncating what it mistakes for the first one's torn tail. The lock
// dies with the process, so a crashed worker's identity is reusable
// immediately.
func Open(o Options) (*Ledger, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("lease: ledger directory is empty")
	}
	if !workerIDRx.MatchString(o.Worker) {
		return nil, fmt.Errorf("lease: worker ID %q must match %s", o.Worker, workerIDRx)
	}
	if o.Fingerprint.Sweep == "" {
		return nil, fmt.Errorf("lease: fingerprint has no sweep name")
	}
	l := &Ledger{
		dir:     o.Dir,
		worker:  o.Worker,
		fp:      o.Fingerprint,
		ttl:     o.TTL,
		retries: o.Retries,
		clock:   o.clock,
		held:    map[Cell]bool{},
	}
	if l.ttl == 0 {
		l.ttl = DefaultTTL
	}
	if l.retries == 0 {
		l.retries = DefaultRetries
	} else if l.retries < 0 {
		l.retries = 0
	}
	if l.clock == nil {
		l.clock = wallNow
	}
	// Jitter only de-synchronizes colliding workers, so a seed derived
	// from the worker's identity is both deterministic per worker and
	// distinct across the fleet.
	h := fnv.New64a()
	h.Write([]byte(o.Worker))
	l.rng = rand.New(rand.NewSource(int64(h.Sum64())))

	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lease: %s: %w", o.Dir, err)
	}
	// Verify every existing journal's headers before writing anything:
	// a worker started with different flags must be refused loudly, not
	// leave its own conflicting header behind.
	if _, err := scanDir(o.Dir, o.Fingerprint, 0); err != nil {
		return nil, err
	}
	path := filepath.Join(o.Dir, o.Worker+ledgerExt)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lease: %s: %w", path, err)
	}
	l.f = f
	// The flock must precede the torn-tail scan: a "torn" final line on
	// a locked journal is another live writer's in-flight append, not a
	// crash artifact, and truncating it would corrupt their journal.
	if err := syscall.Flock(int(l.f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		l.f.Close()
		return nil, fmt.Errorf("lease: %s: worker ID %q already has a live writer (%v); two live processes must never share an identity", path, o.Worker, err)
	}
	fs, err := scanFile(path, o.Fingerprint)
	if err != nil {
		l.f.Close()
		return nil, err
	}
	if fs.torn {
		// Our own file, our own torn tail: drop it so the journal stays
		// one-record-per-line before we append.
		if err := l.f.Truncate(fs.validSize); err != nil {
			l.f.Close()
			return nil, fmt.Errorf("lease: %s: dropping torn final record: %w", path, err)
		}
	}
	if !fs.hasHeader {
		fp := o.Fingerprint
		if err := l.append(record{Kind: KindHeader, V: recordV, Sweep: fp.Sweep, Header: &fp}); err != nil {
			l.f.Close()
			return nil, err
		}
	}
	// The flock proves no earlier incarnation under this identity is
	// alive, so its live leases are crash leftovers.
	st, err := l.Scan()
	if err != nil {
		l.f.Close()
		return nil, err
	}
	for c, cs := range st.Cells {
		if cs.Completed || cs.Holder != l.worker {
			continue
		}
		ls := Lease{Cell: c, Token: cs.HolderToken, Attempt: cs.NextAttempt}
		if err := l.Abandon(ls, "worker "+l.worker+" restarted: its previous incarnation died holding the cell"); err != nil {
			l.f.Close()
			return nil, err
		}
	}
	return l, nil
}

// Close releases the worker's journal file and with it the live-writer
// lock, making the identity reusable. Held leases are left to expire
// (or to the next Open under this identity); call Release or Abandon
// first to free them at once.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Worker returns the ledger handle's worker identity.
func (l *Ledger) Worker() string { return l.worker }

// TTL returns the lease expiry horizon.
func (l *Ledger) TTL() time.Duration { return l.ttl }

// Retries returns the per-cell retry budget.
func (l *Ledger) Retries() int { return l.retries }

// Counters snapshots this process's lease activity.
func (l *Ledger) Counters() obs.LeaseCounts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts
}

// nowMS reads the (injectable) clock as Unix milliseconds.
func (l *Ledger) nowMS() int64 { return l.clock().UnixMilli() }

// Scan returns the merged point-in-time view of the whole ledger.
func (l *Ledger) Scan() (*State, error) {
	return scanDir(l.dir, l.fp, l.nowMS())
}

// append serializes rec as one journal line. A short write reports the
// exact position so a worker losing its disk mid-record can say what
// made it into the ledger.
func (l *Ledger) append(rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if n, err := l.f.Write(line); err != nil {
		return fmt.Errorf("lease: %s: wrote %d of %d bytes of %s record: %w", l.f.Name(), n, len(line), rec.Kind, err)
	}
	return nil
}

// cellRecord assembles a cell record for ls.
func (l *Ledger) cellRecord(kind string, ls Lease) record {
	return record{
		Kind: kind, V: recordV, Sweep: l.fp.Sweep,
		X: ls.Cell.X, SeedIndex: ls.Cell.SeedIndex,
		Worker: l.worker, Token: ls.Token, Attempt: ls.Attempt,
	}
}

// appendLease journals a claim (or renewal) of ls expiring one TTL from
// now, and returns the deadline written.
func (l *Ledger) appendLease(ls Lease) (int64, error) {
	rec := l.cellRecord(KindLease, ls)
	rec.DeadlineMS = l.nowMS() + l.ttl.Milliseconds()
	return rec.DeadlineMS, l.append(rec)
}

// hold marks c as claimed by this process (so sibling goroutines skip
// it) and reports whether the mark was newly taken.
func (l *Ledger) hold(c Cell) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held[c] {
		return false
	}
	l.held[c] = true
	return true
}

// unhold clears the in-process hold on c.
func (l *Ledger) unhold(c Cell) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.held, c)
}

// bump advances one counter lane under the lock.
func (l *Ledger) bump(f func(*obs.LeaseCounts)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f(&l.counts)
}

// pause sleeps for roughly d (±50% seeded jitter), or returns early
// with ctx's error.
func (l *Ledger) pause(ctx context.Context, d time.Duration) error {
	l.mu.Lock()
	jittered := d/2 + time.Duration(l.rng.Int63n(int64(d)))
	l.mu.Unlock()
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Acquire claims one free cell from cells, blocking — with capped
// exponential backoff — while every pending cell is leased elsewhere,
// until a claim wins, every cell is completed or degraded (StatusDone),
// or ctx ends. The claim protocol is optimistic: append a lease record
// under the next fencing token, then re-scan to verify this worker won
// the token; a lost race backs off and tries another cell.
func (l *Ledger) Acquire(ctx context.Context, cells []Cell) (Lease, Status, error) {
	delay := backoffBase
	for {
		if err := ctx.Err(); err != nil {
			return Lease{}, StatusAcquired, err
		}
		st, err := l.Scan()
		if err != nil {
			return Lease{}, StatusAcquired, err
		}
		var free []Cell
		pending := false
		for _, c := range cells {
			switch st.Phase(c, l.retries) {
			case PhaseCompleted, PhaseDegraded:
			case PhaseLeased:
				pending = true
			case PhaseFree:
				if l.isHeld(c) {
					pending = true // a sibling goroutine is on it
					continue
				}
				free = append(free, c)
			}
		}
		if len(free) == 0 {
			if !pending {
				return Lease{}, StatusDone, nil
			}
			l.bump(func(c *obs.LeaseCounts) { c.Waits++ })
			if err := l.pause(ctx, delay); err != nil {
				return Lease{}, StatusAcquired, err
			}
			delay = nextDelay(delay)
			continue
		}
		// Start each worker at a different point of the free list so a
		// fleet spreads out instead of stampeding the first free cell.
		c := free[int(workerHash(l.worker)%uint64(len(free)))]
		cs := st.Cell(c)
		ls := Lease{Cell: c, Token: cs.NextToken, Attempt: cs.NextAttempt}
		if l.scanned != nil {
			l.scanned(c)
		}
		if !l.hold(c) {
			continue // a sibling goroutine claimed it since the scan
		}
		if _, err := l.appendLease(ls); err != nil {
			l.unhold(c)
			return Lease{}, StatusAcquired, err
		}
		verify, err := l.Scan()
		if err != nil {
			l.unhold(c)
			return Lease{}, StatusAcquired, err
		}
		if p := verify.Phase(c, l.retries); p == PhaseCompleted || p == PhaseDegraded {
			// A sibling finished c between our scan and our hold, and our
			// stale-token lease may share its token, which would pass the
			// holder check below. The cell needs no claim; rescan for
			// other work. This is not a lost race, so no conflict counts.
			l.unhold(c)
			continue
		}
		got := verify.Cell(c)
		if got.Holder == l.worker && got.HolderToken == ls.Token {
			l.bump(func(cnt *obs.LeaseCounts) {
				cnt.Leases++
				if cs.TopExpired {
					cnt.Reclaims++
				}
			})
			return ls, StatusAcquired, nil
		}
		// Lost the fencing race; our same-token record is shadowed by
		// the winner and never counts as a failed attempt.
		l.unhold(c)
		l.bump(func(cnt *obs.LeaseCounts) { cnt.Conflicts++ })
		if err := l.pause(ctx, delay); err != nil {
			return Lease{}, StatusAcquired, err
		}
		delay = nextDelay(delay)
	}
}

// isHeld reports whether this process already holds c.
func (l *Ledger) isHeld(c Cell) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.held[c]
}

// nextDelay doubles the backoff up to the cap.
func nextDelay(d time.Duration) time.Duration {
	if d *= 2; d > backoffCap {
		return backoffCap
	}
	return d
}

// workerHash spreads workers across the free list deterministically.
func workerHash(worker string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(worker))
	return h.Sum64()
}

// Renew extends ls by one TTL from now (a heartbeat).
func (l *Ledger) Renew(ls Lease) error {
	if _, err := l.appendLease(ls); err != nil {
		return err
	}
	l.bump(func(c *obs.LeaseCounts) { c.Renewals++ })
	return nil
}

// Heartbeat renews ls every TTL/3 until the returned stop function is
// called or ctx ends. stop reports the first renewal failure, which the
// caller can fold into the cell's outcome; a worker whose renewals fail
// simply loses the lease to reclamation, so the failure is advisory.
func (l *Ledger) Heartbeat(ctx context.Context, ls Lease) (stop func() error) {
	interval := l.ttl / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if err := l.Renew(ls); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	var once sync.Once
	return func() error {
		once.Do(func() { close(done) })
		return <-errc
	}
}

// Complete journals ls's results and fsyncs the journal before
// returning, so an acknowledged completion survives a crash or power
// loss immediately after: fsync-on-complete is what upgrades the
// O_APPEND discipline from torn-write-safe to durable.
func (l *Ledger) Complete(ls Lease, results json.RawMessage) error {
	rec := l.cellRecord(KindComplete, ls)
	rec.Results = results
	if err := l.append(rec); err != nil {
		return err
	}
	l.mu.Lock()
	err := l.f.Sync()
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("lease: %s: fsync after complete: %w", l.f.Name(), err)
	}
	l.unhold(ls.Cell)
	l.bump(func(c *obs.LeaseCounts) { c.Completes++ })
	return nil
}

// Abandon gives ls up because the cell failed, making it immediately
// retryable (by any worker) and consuming one attempt.
func (l *Ledger) Abandon(ls Lease, reason string) error {
	rec := l.cellRecord(KindAbandon, ls)
	rec.Error = reason
	if err := l.append(rec); err != nil {
		return err
	}
	l.unhold(ls.Cell)
	l.bump(func(c *obs.LeaseCounts) { c.Abandons++ })
	return nil
}

// Release gives ls back unfailed because its run was interrupted: the
// cell is free at once, for any worker, and no attempt is spent. A
// release after the lease's deadline changes nothing: the expiry has
// already spent the attempt, and the cell may have been reclaimed.
func (l *Ledger) Release(ls Lease) error {
	rec := l.cellRecord(KindRelease, ls)
	rec.DeadlineMS = l.nowMS()
	if err := l.append(rec); err != nil {
		return err
	}
	l.unhold(ls.Cell)
	return nil
}

// Wait blocks — with the same capped backoff as Acquire — until every
// cell is completed or degraded, or ctx ends. It is the coordinator's
// half of a fleet run: a process that contributes no compute but wants
// to merge and render once the workers converge.
func (l *Ledger) Wait(ctx context.Context, cells []Cell) error {
	delay := backoffBase
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		st, err := l.Scan()
		if err != nil {
			return err
		}
		pending := false
		for _, c := range cells {
			if p := st.Phase(c, l.retries); p == PhaseFree || p == PhaseLeased {
				pending = true
				break
			}
		}
		if !pending {
			return nil
		}
		l.bump(func(c *obs.LeaseCounts) { c.Waits++ })
		if err := l.pause(ctx, delay); err != nil {
			return err
		}
		delay = nextDelay(delay)
	}
}

// Degraded describes one cell that exhausted its retry budget.
type Degraded struct {
	// Cell is the degraded cell.
	Cell Cell
	// Attempts is how many attempts failed.
	Attempts int
	// LastError is the most recent abandon reason ("" when every
	// attempt died by expiry).
	LastError string
}

// Merge scans the ledger and splits cells into completed payloads and
// degraded cells, in the caller's cell order. Cells still pending
// (free or leased) appear in neither — callers that want a total
// partition should Acquire until StatusDone first.
func (l *Ledger) Merge(cells []Cell) (map[Cell]json.RawMessage, []Degraded, error) {
	st, err := l.Scan()
	if err != nil {
		return nil, nil, err
	}
	done := make(map[Cell]json.RawMessage)
	var degraded []Degraded
	for _, c := range cells {
		cs := st.Cell(c)
		switch st.Phase(c, l.retries) {
		case PhaseCompleted:
			done[c] = cs.Results
		case PhaseDegraded:
			degraded = append(degraded, Degraded{Cell: c, Attempts: cs.Failed, LastError: cs.LastError})
		}
	}
	return done, degraded, nil
}
