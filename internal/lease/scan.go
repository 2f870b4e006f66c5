package lease

// Merge-on-read: every scan folds all worker files into one State,
// applying the fencing rules documented in the package comment. Scans
// are cheap relative to cell runtimes (cells are whole simulation
// replications), so the ledger trades read amplification for having no
// coordinator, no locks and no shared mutable state.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Phase is a cell's lifecycle position in the merged ledger view.
type Phase int

// The cell phases, in lifecycle order.
const (
	// PhaseFree means no live lease holds the cell: it has never been
	// claimed, or every claim expired, was abandoned within budget or
	// was released.
	PhaseFree Phase = iota
	// PhaseLeased means a live (unexpired) lease holds the cell.
	PhaseLeased
	// PhaseCompleted means a complete record exists for the cell.
	PhaseCompleted
	// PhaseDegraded means the cell's failed attempts exhausted the
	// retry budget without a completion.
	PhaseDegraded
)

// String names the phase for diagnostics.
func (p Phase) String() string {
	switch p {
	case PhaseFree:
		return "free"
	case PhaseLeased:
		return "leased"
	case PhaseCompleted:
		return "completed"
	case PhaseDegraded:
		return "degraded"
	}
	return "phase?"
}

// tokenState folds every lease/abandon/release record of one (cell,
// token) pair. The token's winner is the lexicographically smallest
// worker that wrote a lease under it; only the winner's deadlines count,
// so a losing racer's records can neither extend nor shorten the lease.
type tokenState struct {
	winner     string
	deadlineMS int64
	abandoned  bool
	// releaser and releasedMS record the token's earliest release.
	releaser   string
	releasedMS int64
}

// released reports whether the token was given back unfailed: by its
// winner, while its lease was still live. A release that comes after
// the deadline is too late — the expiry already spent the attempt.
func (ts *tokenState) released() bool {
	return !ts.abandoned && ts.releaser != "" && ts.releaser == ts.winner && ts.releasedMS <= ts.deadlineMS
}

// CellState is the merged view of one cell after a scan.
type CellState struct {
	// Completed reports a complete record exists; Results then holds
	// the payload of the newest-token completion (ties broken by
	// smallest worker ID).
	Completed bool
	// Results is the winning completion's opaque payload.
	Results json.RawMessage
	// CompleteToken and CompleteWorker identify the winning completion.
	CompleteToken uint64
	// CompleteWorker is the worker that wrote the winning completion.
	CompleteWorker string
	// Holder is the live lease holder ("" when none): the winner of the
	// newest token, when that token is neither abandoned nor expired.
	Holder string
	// HolderToken is the live lease's fencing token.
	HolderToken uint64
	// HolderDeadlineMS is the live lease's expiry (Unix milliseconds).
	HolderDeadlineMS int64
	// Failed counts terminally failed attempts: tokens that were
	// abandoned, or whose winner's deadline passed without completion.
	// Released tokens are neither live nor failed.
	Failed int
	// TopExpired reports that the newest token failed by expiry rather
	// than abandonment — the signature of a crashed or hung worker, and
	// what distinguishes a reclaim from an ordinary retry.
	TopExpired bool
	// LastError is the most recent abandon reason, for degradation
	// reports.
	LastError string
	// NextToken is the fencing token a new claimant must write.
	NextToken uint64
	// NextAttempt is the 1-based attempt number a new claim represents.
	NextAttempt int

	tokens map[uint64]*tokenState
}

// State is a point-in-time merged view of every ledger file.
type State struct {
	// Cells maps each cell that has at least one record to its state.
	Cells map[Cell]CellState
	// NowMS is the scan's clock reading (Unix milliseconds); phases are
	// relative to it.
	NowMS int64
}

// Cell returns c's merged state; a cell without records is free at
// token 1, attempt 1.
func (st *State) Cell(c Cell) CellState {
	if cs, ok := st.Cells[c]; ok {
		return cs
	}
	return CellState{NextToken: 1, NextAttempt: 1}
}

// Phase classifies c under the given retry budget.
func (st *State) Phase(c Cell, retries int) Phase {
	cs := st.Cell(c)
	switch {
	case cs.Completed:
		return PhaseCompleted
	case cs.Failed > retries:
		return PhaseDegraded
	case cs.Holder != "":
		return PhaseLeased
	}
	return PhaseFree
}

// fileScan is what scanning one ledger file recovers.
type fileScan struct {
	records   []record
	hasHeader bool // a matching-sweep header was seen
	torn      bool // a malformed final line was dropped
	validSize int64
}

// scanFile reads one ledger file, returning every record for fp's sweep
// and verifying any matching-sweep header against fp. Only a malformed
// *final* line is tolerated (a torn write from a crash or truncation);
// a malformed line followed by more data is corruption and errors
// loudly, because resuming past it would silently re-run or trust
// damaged work.
func scanFile(path string, fp Fingerprint) (fileScan, error) {
	var fs fileScan
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return fs, nil
	}
	if err != nil {
		return fs, fmt.Errorf("lease: %s: %w", path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	lineNo, badLine := 0, 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			if badLine == 0 {
				fs.validSize++
			}
			continue
		}
		if badLine != 0 {
			return fs, fmt.Errorf("lease: %s: malformed record at line %d followed by more data: ledger file is corrupt, not torn; move it aside to recover", path, badLine)
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			badLine = lineNo // tolerated iff this is the final line
			continue
		}
		fs.validSize += int64(len(line)) + 1
		if rec.Sweep != fp.Sweep {
			continue
		}
		switch rec.Kind {
		case KindHeader:
			if rec.Header == nil {
				return fs, fmt.Errorf("lease: %s:%d: header record without a fingerprint", path, lineNo)
			}
			if err := fp.diff(*rec.Header); err != nil {
				return fs, fmt.Errorf("lease: %s: sweep %q configuration changed since the ledger was written — %w; finish with the original flags or move the ledger aside to start over", path, fp.Sweep, err)
			}
			fs.hasHeader = true
		case KindLease, KindComplete, KindAbandon, KindRelease:
			fs.records = append(fs.records, rec)
		default:
			return fs, fmt.Errorf("lease: %s:%d: unknown record kind %q (written by a newer build?); refusing to scan past it", path, lineNo, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return fs, fmt.Errorf("lease: %s: %w", path, err)
	}
	fs.torn = badLine != 0
	return fs, nil
}

// ledgerFiles lists the ledger directory's journal files in
// deterministic (sorted) order.
func ledgerFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lease: %s: %w", dir, err)
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ledgerExt) {
			continue
		}
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	sort.Strings(paths)
	return paths, nil
}

// scanDir merges every ledger file in dir into one State as of nowMS.
func scanDir(dir string, fp Fingerprint, nowMS int64) (*State, error) {
	paths, err := ledgerFiles(dir)
	if err != nil {
		return nil, err
	}
	st := &State{Cells: map[Cell]CellState{}, NowMS: nowMS}
	for _, path := range paths {
		fs, err := scanFile(path, fp)
		if err != nil {
			return nil, err
		}
		for _, rec := range fs.records {
			st.fold(rec)
		}
	}
	for c, cs := range st.Cells {
		cs.finalize(nowMS)
		st.Cells[c] = cs
	}
	return st, nil
}

// fold accumulates one record into the per-cell token groups.
func (st *State) fold(rec record) {
	c := rec.cell()
	cs := st.Cells[c]
	if cs.tokens == nil {
		cs.tokens = map[uint64]*tokenState{}
	}
	if rec.Token >= cs.NextToken {
		cs.NextToken = rec.Token + 1
	}
	switch rec.Kind {
	case KindLease:
		ts := cs.tokens[rec.Token]
		if ts == nil {
			ts = &tokenState{}
			cs.tokens[rec.Token] = ts
		}
		switch {
		case ts.winner == "" || rec.Worker < ts.winner:
			// New (or lexicographically smaller) claimant takes the
			// token; only its deadlines count from here on.
			ts.winner, ts.deadlineMS = rec.Worker, rec.DeadlineMS
		case rec.Worker == ts.winner && rec.DeadlineMS > ts.deadlineMS:
			ts.deadlineMS = rec.DeadlineMS // heartbeat renewal
		}
	case KindAbandon, KindRelease:
		ts := cs.tokens[rec.Token]
		if ts == nil {
			ts = &tokenState{}
			cs.tokens[rec.Token] = ts
		}
		if rec.Kind == KindRelease {
			if ts.releaser == "" || rec.DeadlineMS < ts.releasedMS {
				ts.releaser, ts.releasedMS = rec.Worker, rec.DeadlineMS
			}
			break
		}
		ts.abandoned = true
		if rec.Error != "" {
			cs.LastError = rec.Error
		}
	case KindComplete:
		better := !cs.Completed ||
			rec.Token > cs.CompleteToken ||
			(rec.Token == cs.CompleteToken && rec.Worker < cs.CompleteWorker)
		if better {
			cs.Completed = true
			cs.CompleteToken = rec.Token
			cs.CompleteWorker = rec.Worker
			cs.Results = rec.Results
		}
	}
	st.Cells[c] = cs
}

// finalize derives the holder, failure counts and next claim values
// from the folded token groups, applying the newest-token-authoritative
// rule as of nowMS.
func (cs *CellState) finalize(nowMS int64) {
	if cs.NextToken == 0 {
		cs.NextToken = 1
	}
	var top uint64
	for tok := range cs.tokens {
		if tok > top {
			top = tok
		}
	}
	for tok, ts := range cs.tokens {
		if ts.released() {
			continue // given back unfailed: neither live nor an attempt
		}
		live := !ts.abandoned && ts.deadlineMS >= nowMS
		if tok == top && live {
			cs.Holder = ts.winner
			cs.HolderToken = tok
			cs.HolderDeadlineMS = ts.deadlineMS
			continue
		}
		cs.Failed++
		if tok == top {
			cs.TopExpired = !ts.abandoned
		}
	}
	cs.NextAttempt = cs.Failed + 1
	cs.tokens = nil
}
