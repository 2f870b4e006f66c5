package sim

// The checkpoint journal behind Sweep.Checkpoint: RunContext appends a
// record to DIR/local.jsonl for every cell it completes, and a re-run
// folds the file to skip those cells. One process writes the file — an
// exclusive flock enforces it — so a malformed line can only be the
// final one, torn by a crash mid-append.
//
// Each line is one JSON record, "v": 1, discriminated by "kind":
//
//	header    the sweep's fingerprint; a resume checks it field by field
//	complete  cell (x, seed_index) finished; results holds its
//	          per-policy results, fsynced before the run moves on
//
// Every record carries its sweep's name, so one file holds several
// sweeps. A cell with no complete record runs on the next resume, once,
// like any cell of a plain run. Older builds also wrote lease, abandon
// and release records, around every attempt at a cell, and extra
// fields (attempt, error, and the retired multi-process ledger's
// token, deadline_ms and worker); the fold skips those records and
// fields, so their journals still resume.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"

	"smbm/internal/core"
	"smbm/internal/obs"
)

// journalFile names the journal inside the checkpoint directory.
const journalFile = "local.jsonl"

// journalV is the record schema version this build writes.
const journalV = 1

// Record kinds (the "kind" discriminator of every journal line).
const (
	kindHeader   = "header"
	kindComplete = "complete"
)

// sweepFingerprint pins a sweep's journal records to one configuration: its
// identity plus the Build-supplied config digest. Resuming under a
// changed one is refused, naming the differing field.
type sweepFingerprint struct {
	Sweep    string `json:"sweep"`
	XLabel   string `json:"x_label"`
	XsHash   string `json:"xs_hash"`
	Seeds    int    `json:"seeds"`
	BaseSeed int64  `json:"base_seed"`
	Config   string `json:"config,omitempty"`
}

// fingerprint renders the sweep's identity: its name, XLabel, a digest
// of the Xs, Seeds, BaseSeed and ConfigDigest.
func (s *Sweep) fingerprint() sweepFingerprint {
	return sweepFingerprint{
		Sweep:    s.Name,
		XLabel:   s.XLabel,
		XsHash:   xsDigest(s.Xs),
		Seeds:    s.Seeds,
		BaseSeed: s.BaseSeed,
		Config:   s.ConfigDigest,
	}
}

// xsDigest hashes the swept values (count, then each value) with
// FNV-1a, rendering a compact hex fingerprint.
func xsDigest(xs []int) string {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// diff compares the sweep's fingerprint f against a journaled one and
// names the first differing field, or returns nil on a match.
func (f sweepFingerprint) diff(got sweepFingerprint) error {
	for _, c := range []struct{ name, journal, want string }{
		{"x_label", got.XLabel, f.XLabel},
		{"xs", got.XsHash, f.XsHash},
		{"seeds", strconv.Itoa(got.Seeds), strconv.Itoa(f.Seeds)},
		{"base_seed", strconv.FormatInt(got.BaseSeed, 10), strconv.FormatInt(f.BaseSeed, 10)},
		{"config", got.Config, f.Config},
	} {
		if c.journal != c.want {
			return fmt.Errorf("%s: journal has %q, sweep has %q", c.name, c.journal, c.want)
		}
	}
	return nil
}

// record is one journal line; which fields are meaningful depends on
// Kind.
type record struct {
	Kind      string            `json:"kind"`
	V         int               `json:"v"`
	Sweep     string            `json:"sweep"`
	Header    *sweepFingerprint `json:"header,omitempty"`
	X         int               `json:"x"`
	SeedIndex int               `json:"seed_index"`
	Results   json.RawMessage   `json:"results,omitempty"`
}

// cellKey identifies one (x, seed index) cell in the journal.
type cellKey struct{ x, si int }

// journal is an open checkpoint journal for one sweep.
type journal struct {
	fp sweepFingerprint
	// done holds the payload of every cell the journal held completed
	// when it was opened.
	done map[cellKey]json.RawMessage

	mu sync.Mutex
	f  *os.File
}

// openJournal opens (creating it if absent) the journal in dir for the
// sweep fp names, folds its records, drops a torn final line, and
// appends the sweep's header when the file has none.
func openJournal(dir string, fp sweepFingerprint) (*journal, error) {
	if fp.Sweep == "" {
		return nil, fmt.Errorf("sim: checkpoint %s: the sweep has no name to key its records by", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
	j := &journal{fp: fp, done: map[cellKey]json.RawMessage{}, f: f}
	if err := j.load(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// load locks the file, folds it and prepares it for appending.
func (j *journal) load() error {
	path := j.f.Name()
	// The lock precedes the read: a torn final line in a file another
	// live run holds is its in-flight append, not crash debris.
	if err := syscall.Flock(int(j.f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		return fmt.Errorf("sim: checkpoint %s already has a live writer (%v); two runs must never share one checkpoint directory", path, err)
	}
	raw, err := io.ReadAll(j.f)
	if err != nil {
		return fmt.Errorf("sim: checkpoint %s: %w", path, err)
	}
	valid, hasHeader := 0, false
	for lineNo, rest := 1, raw; len(rest) > 0; lineNo++ {
		// Every record is written with its newline in one append, so a
		// line without one is a torn write even if it parses.
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break
		}
		line := rest[:i]
		rest = rest[i+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			valid += i + 1
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			if len(bytes.TrimSpace(rest)) == 0 {
				break
			}
			return fmt.Errorf("sim: checkpoint %s: malformed record at line %d followed by more data: the journal is corrupt, not torn; move it aside to recover", path, lineNo)
		}
		valid += i + 1
		if rec.Sweep != j.fp.Sweep {
			continue
		}
		switch rec.Kind {
		case kindHeader:
			if rec.Header == nil {
				return fmt.Errorf("sim: checkpoint %s:%d: header record without a fingerprint", path, lineNo)
			}
			if err := j.fp.diff(*rec.Header); err != nil {
				return fmt.Errorf("sim: checkpoint %s: sweep %q configuration changed since the journal was written — %w; finish with the original flags or move the checkpoint aside to start over", path, j.fp.Sweep, err)
			}
			hasHeader = true
		case kindComplete:
			j.done[cellKey{rec.X, rec.SeedIndex}] = rec.Results
		case "lease", "abandon", "release":
			// An older build's bookkeeping around an attempt: only
			// completes decide what a resume skips.
		default:
			return fmt.Errorf("sim: checkpoint %s:%d: unknown record kind %q (written by a newer build?); refusing to read past it", path, lineNo, rec.Kind)
		}
	}
	if valid < len(raw) {
		if err := j.f.Truncate(int64(valid)); err != nil {
			return fmt.Errorf("sim: checkpoint %s: dropping torn final record: %w", path, err)
		}
	}
	if hasHeader {
		return nil
	}
	fp := j.fp
	return j.append(record{Kind: kindHeader, Header: &fp})
}

// complete journals cell (x, si) as finished with results.
func (j *journal) complete(x, si int, results []Result) error {
	raw, err := encodeCellResults(results)
	if err != nil {
		return err
	}
	return j.append(record{Kind: kindComplete, X: x, SeedIndex: si, Results: raw})
}

// append writes rec as one journal line and fsyncs it before
// returning, so an acknowledged cell survives a crash.
func (j *journal) append(rec record) error {
	rec.V, rec.Sweep = journalV, j.fp.Sweep
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if n, err := j.f.Write(line); err != nil {
		return fmt.Errorf("sim: checkpoint %s: wrote %d of %d bytes of a %s record: %w", j.f.Name(), n, len(line), rec.Kind, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sim: checkpoint %s: fsync after %s: %w", j.f.Name(), rec.Kind, err)
	}
	return nil
}

// close releases the file and with it the writer lock.
func (j *journal) close() error { return j.f.Close() }

// cellResult is the serialized form of one Result in a complete
// record. The empirical ratio is recomputed on decode because JSON
// cannot encode +Inf.
type cellResult struct {
	Policy        string        `json:"policy"`
	Throughput    int64         `json:"throughput"`
	OptThroughput int64         `json:"opt_throughput"`
	Stats         core.Stats    `json:"stats"`
	Obs           *obs.Snapshot `json:"obs,omitempty"`
}

// encodeCellResults serializes one cell's per-policy results as a
// complete record's payload.
func encodeCellResults(results []Result) (json.RawMessage, error) {
	crs := make([]cellResult, len(results))
	for i, r := range results {
		crs[i] = cellResult{
			Policy:        r.Policy,
			Throughput:    r.Throughput,
			OptThroughput: r.OptThroughput,
			Stats:         r.Stats,
			Obs:           r.Obs,
		}
	}
	raw, err := json.Marshal(crs)
	if err != nil {
		return nil, fmt.Errorf("sim: cell results: %w", err)
	}
	return raw, nil
}

// decodeCellResults rehydrates a complete record's payload.
func decodeCellResults(raw json.RawMessage) ([]Result, error) {
	var crs []cellResult
	if err := json.Unmarshal(raw, &crs); err != nil {
		return nil, fmt.Errorf("sim: cell results: %w", err)
	}
	out := make([]Result, len(crs))
	for i, cr := range crs {
		out[i] = Result{
			Policy:        cr.Policy,
			Throughput:    cr.Throughput,
			OptThroughput: cr.OptThroughput,
			Ratio:         ratio(cr.OptThroughput, cr.Throughput),
			Stats:         cr.Stats,
			Obs:           cr.Obs,
		}
	}
	return out, nil
}
