// Package lease is the crash-safe work-leasing ledger behind
// distributed sweeps: several worker processes — on one machine or a
// fleet — divide the (x, seed) cells of one deterministic sweep among
// themselves through append-only journal files in a shared directory,
// surviving worker crashes, hangs, zombies and torn writes without ever
// completing a cell twice in the merged result.
//
// # Ledger layout
//
// A ledger is a directory. Every worker owns exactly one file in it,
// <worker>.jsonl, opened O_APPEND and written only by that worker — the
// single-writer discipline that makes torn-write recovery trivial: a
// malformed line can only be the file's final line (a crash or
// truncation mid-append), so every reader skips a torn tail and treats
// a malformed line followed by more data as real corruption. Readers
// merge all files on every scan; no locks, no server, any shared
// filesystem works.
//
// # Record grammar
//
// Each line is one JSON record discriminated by "kind":
//
//	header    the sweep fingerprint (identity + config digest), written
//	          once per sweep per file; scans verify every matching-sweep
//	          header field by field and refuse mismatches loudly.
//	lease     worker W claims cell (x, seed_index) with fencing token T
//	          until deadline_ms; re-appended with a fresh deadline on
//	          every heartbeat renewal.
//	complete  worker W finished the cell under token T; results carries
//	          the serialized per-policy results. fsynced before the
//	          worker moves on.
//	abandon   worker W gave the cell up under token T (the cell failed,
//	          or W crashed holding it and restarted); error says why. The
//	          cell becomes retryable immediately and one attempt is spent.
//	release   worker W gave the cell back under token T unfailed (its run
//	          was interrupted). The cell is free immediately and no
//	          attempt is spent.
//
// # Fencing rules
//
// Fencing tokens are per-cell and monotonically increasing: a claimant
// always writes max(observed token)+1. Two workers that race from the
// same scan therefore write the *same* token, and the conflict resolves
// deterministically — the lexicographically smallest worker ID wins the
// token — which both sides discover on their post-append verification
// scan; the loser backs off (capped exponential backoff with seeded
// jitter) and re-acquires elsewhere. On merge the newest fencing token
// is authoritative: a zombie worker completing under a stale token can
// never clobber a cell completed under a newer one.
//
// The execution guarantee is deliberately at-least-once, exactly-once
// merge: append-only files provide no atomic claim primitive, so in a
// narrow window (claimant A appends and verifies before claimant B's
// same-token append becomes visible) both workers can run the same
// cell. The merge stays exactly-once regardless — one complete record
// wins per cell (newest token, then smallest worker) — and because the
// sweep engine is deterministic, duplicate completions carry
// bit-identical results, so a duplicated execution costs wasted work,
// never a wrong table. The chaos harness checks exactly that property
// against a single-process oracle.
//
// # Liveness
//
// A lease whose deadline passes without renewal or completion is
// expired: any worker may reclaim the cell under the next token. Every
// expiry or abandonment consumes one attempt (a release does not); a
// worker restarting under its old identity abandons the leases its
// crashed incarnation left live, so they need not wait out the TTL. A
// cell whose failed attempts exceed the configured retry budget is
// degraded — reported, skipped by workers, and omitted from the merged
// grid so partial tables still render (the graceful-degradation
// contract).
//
// Wall-clock reads are confined to the //smb:leaseclock-annotated clock
// in clock.go; the smblint leaseclock analyzer enforces that this
// package — the only one allowed to observe real time outside the
// reporting layers — does so nowhere else.
package lease

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Cell identifies one unit of leased work: one (x, seedIndex) sweep
// cell.
type Cell struct {
	// X is the swept parameter value.
	X int
	// SeedIndex is the replication index.
	SeedIndex int
}

// String renders the cell for errors and warnings.
func (c Cell) String() string {
	return "x=" + strconv.Itoa(c.X) + " seed[" + strconv.Itoa(c.SeedIndex) + "]"
}

// Fingerprint pins a ledger to one sweep configuration: the sweep's
// identity plus the caller-supplied config digest. Every worker writes
// it as a header record; every scan verifies matching-sweep headers
// field by field, so a worker started with different flags fails loudly
// instead of silently mixing incompatible cells into one grid.
type Fingerprint struct {
	// Sweep names the sweep ("fig5.1"); ledger directories are shared
	// across sweeps, so every record carries it.
	Sweep string `json:"sweep"`
	// XLabel echoes the sweep's swept-parameter label.
	XLabel string `json:"x_label"`
	// XsHash digests the swept values.
	XsHash string `json:"xs_hash"`
	// Seeds is the number of replications per point.
	Seeds int `json:"seeds"`
	// BaseSeed derives per-replication seeds.
	BaseSeed int64 `json:"base_seed"`
	// Config is the caller's cell-config digest (B, C, policy roster,
	// fault spec — everything the sweep struct cannot see).
	Config string `json:"config,omitempty"`
}

// diff compares the expected fingerprint against a journaled one and
// returns an error naming the first differing field, or nil on match.
func (f Fingerprint) diff(got Fingerprint) error {
	for _, c := range []struct{ name, journal, want string }{
		{"x_label", got.XLabel, f.XLabel},
		{"xs", got.XsHash, f.XsHash},
		{"seeds", strconv.Itoa(got.Seeds), strconv.Itoa(f.Seeds)},
		{"base_seed", strconv.FormatInt(got.BaseSeed, 10), strconv.FormatInt(f.BaseSeed, 10)},
		{"config", got.Config, f.Config},
	} {
		if c.journal != c.want {
			return fmt.Errorf("%s: ledger has %q, sweep has %q", c.name, c.journal, c.want)
		}
	}
	return nil
}

// Record kinds (the "kind" discriminator of every ledger line).
const (
	// KindHeader is the per-sweep fingerprint record.
	KindHeader = "header"
	// KindLease claims (or renews) a cell under a fencing token.
	KindLease = "lease"
	// KindComplete journals a finished cell's results.
	KindComplete = "complete"
	// KindAbandon gives up a failed cell for retry, spending an attempt.
	KindAbandon = "abandon"
	// KindRelease gives back an interrupted cell without spending an
	// attempt.
	KindRelease = "release"
)

// recordV is the ledger schema version this build writes and accepts.
const recordV = 1

// record is one ledger line; which fields are meaningful depends on
// Kind. Unknown kinds are a hard scan error: silently skipping records
// written by a newer build could resurrect work that build had fenced
// off.
type record struct {
	// Kind discriminates the record (KindHeader, KindLease, …).
	Kind string `json:"kind"`
	// V is the schema version (recordV).
	V int `json:"v"`
	// Sweep keys the record to its sweep (ledgers are shared).
	Sweep string `json:"sweep"`

	// Header carries the fingerprint on KindHeader records.
	Header *Fingerprint `json:"header,omitempty"`

	// X and SeedIndex identify the cell on cell records.
	X int `json:"x"`
	// SeedIndex is the cell's replication index.
	SeedIndex int `json:"seed_index"`
	// Worker is the writing worker's ID.
	Worker string `json:"worker,omitempty"`
	// Token is the cell's fencing token.
	Token uint64 `json:"token,omitempty"`
	// Attempt is the 1-based attempt number this token represents.
	Attempt int `json:"attempt,omitempty"`
	// DeadlineMS is the lease expiry as Unix milliseconds (KindLease),
	// or the moment of release (KindRelease): a release counts only if
	// the lease was still live then.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Results is the opaque serialized cell payload (KindComplete).
	Results json.RawMessage `json:"results,omitempty"`
	// Error says why the cell was abandoned (KindAbandon).
	Error string `json:"error,omitempty"`
}

// cell returns the record's cell key.
func (r record) cell() Cell { return Cell{X: r.X, SeedIndex: r.SeedIndex} }
