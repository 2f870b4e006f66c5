package traffic

import (
	"fmt"

	"smbm/internal/pkt"
)

// Provider is a re-derivable arrival sequence of known length: a seeded
// generator spec, a trace file, or a materialized Trace. Open returns a
// fresh, independent cursor positioned at slot zero; every cursor of
// one Provider streams the identical slot sequence, so concurrent
// replays are bit-identical without sharing any mutable state. The
// simulation harness (internal/sim) opens one cursor per run and steps
// every system through it a window of slots at a time, which keeps
// arrival memory independent of the trace length for generator- and
// file-backed providers.
type Provider interface {
	// Slots is the stream length in slots.
	Slots() int
	// Open returns a new cursor over the stream, positioned at slot
	// zero. Cursors are independent of each other and of the Provider;
	// each must be Closed when the caller is done with it.
	Open() (Cursor, error)
}

// Cursor is an open read position over a Provider's slot stream: a
// Source that can additionally fail mid-stream (file-backed cursors)
// and hold resources until Closed. Next returns empty bursts once the
// stream is exhausted or after a failure.
type Cursor interface {
	Source
	// Err reports the first stream failure, or nil. A failed cursor
	// emits empty bursts from the failing slot on, so callers that
	// poll Err at slot granularity never consume corrupt arrivals.
	Err() error
	// Close releases the cursor's resources. Closing one cursor never
	// affects other cursors of the same Provider.
	Close() error
}

// nopCursor adapts an in-memory Source into a Cursor that cannot fail
// and holds no resources.
type nopCursor struct{ Source }

// Err implements Cursor: in-memory sources never fail.
func (nopCursor) Err() error { return nil }

// Close implements Cursor: nothing to release.
func (nopCursor) Close() error { return nil }

// AsCursor wraps an in-memory Source as a Cursor that never fails and
// needs no cleanup.
func AsCursor(src Source) Cursor { return nopCursor{src} }

// Slots implements Provider: a materialized trace's length.
func (tr Trace) Slots() int { return len(tr) }

// Open implements Provider: a replay cursor from slot zero. Trace is
// its own Provider — the adapter that lets every existing call site
// hand a materialized trace to the streaming harness unchanged.
func (tr Trace) Open() (Cursor, error) { return AsCursor(tr.Replay()), nil }

// MMPPProvider regenerates a seeded MMPP trace on every Open: each
// cursor is a fresh generator built from the same validated spec, so
// all cursors stream identical slots while holding O(Sources) state —
// the per-worker arrival memory is independent of the slot count. This
// is the paper-scale (2·10⁶ slots, 500 sources) workhorse.
type MMPPProvider struct {
	cfg   MMPPConfig
	slots int
}

// NewMMPPProvider validates the spec and wraps it as a Provider of the
// given length.
func NewMMPPProvider(cfg MMPPConfig, slots int) (*MMPPProvider, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if slots < 0 {
		return nil, fmt.Errorf("traffic: negative slot count %d", slots)
	}
	return &MMPPProvider{cfg: cfg, slots: slots}, nil
}

// Slots implements Provider.
func (p *MMPPProvider) Slots() int { return p.slots }

// Open implements Provider: a fresh deterministic generator seeded
// from the spec.
func (p *MMPPProvider) Open() (Cursor, error) {
	g, err := NewMMPP(p.cfg)
	if err != nil {
		return nil, err
	}
	return AsCursor(g), nil
}

// Repeat cycles a scripted round for a fixed number of rounds — the
// adversarial constructions' "then the process repeats" as a
// re-derivable Provider. An empty Round yields an empty stream.
type Repeat struct {
	// Round is one period of the repeating script.
	Round Trace
	// Rounds is how many times the round plays.
	Rounds int
}

// Slots implements Provider.
func (r Repeat) Slots() int {
	if r.Rounds < 0 {
		return 0
	}
	return len(r.Round) * r.Rounds
}

// Open implements Provider.
func (r Repeat) Open() (Cursor, error) {
	return AsCursor(&repeatCursor{round: r.Round, slots: r.Slots()}), nil
}

// repeatCursor replays the round cyclically for the stream length.
type repeatCursor struct {
	round Trace
	slots int
	pos   int
}

// Next implements Source, lending the round's slot in place like a
// trace replay.
func (c *repeatCursor) Next() []pkt.Packet {
	if c.pos >= c.slots || len(c.round) == 0 {
		return nil
	}
	slot := c.round[c.pos%len(c.round)]
	c.pos++
	return slot[:len(slot):len(slot)]
}

// Interface conformance checks.
var (
	_ Provider = Trace(nil)
	_ Provider = (*MMPPProvider)(nil)
	_ Provider = Repeat{}
)
