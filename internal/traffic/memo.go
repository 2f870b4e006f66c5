package traffic

import (
	//smb:conc-ok memo cache install guard; replayed streams stay bit-identical
	"sync"

	"smbm/internal/pkt"
)

// packetBytes is the memory charged per recorded packet, and
// slotBytes the fixed charge per recorded slot (its slice header),
// when a memoizing provider accounts a stream against its byte
// budget. The figures are the in-memory sizes on 64-bit platforms;
// exactness does not matter, only that the budget scales with the
// materialized trace.
const (
	packetBytes = 24
	slotBytes   = 24
)

// Memoize wraps src so its slot stream is generated once and replayed
// from memory by later cursors. The first cursor streams from src
// while recording; once it has served the full stream cleanly and the
// materialized trace fits within maxBytes, every later Open replays
// the recording instead of regenerating. Streams that fail, are
// closed early, or blow the budget leave the wrapper transparent —
// later cursors regenerate from src exactly as before — so cursors
// are bit-identical to src's in every case and only memory is traded
// for speed. This is how a multi-replay simulation cell (the OPT
// proxy plus every roster policy over one arrival stream) amortizes
// generation cost across replays without giving up the streaming
// harness's bounded-memory property for paper-scale traces: a trace
// too large for the budget is simply never retained.
//
// A non-positive maxBytes disables recording entirely and returns src
// unchanged, as does a src that is already materialized (a Trace) or
// already memoizing. Safe for concurrent Opens; while a recording is
// in flight, other Opens stream straight from src.
func Memoize(src Provider, maxBytes int) Provider {
	if maxBytes <= 0 {
		return src
	}
	switch src.(type) {
	case Trace, *memoProvider:
		return src
	}
	return &memoProvider{src: src, maxBytes: maxBytes}
}

// memoProvider is the Memoize wrapper: src plus, eventually, the
// recorded trace.
type memoProvider struct {
	src      Provider
	maxBytes int

	mu        sync.Mutex
	trace     Trace // non-nil once a recording completed within budget
	recording bool  // a first cursor is currently recording
}

// Slots implements Provider.
func (m *memoProvider) Slots() int { return m.src.Slots() }

// Open implements Provider: a replay cursor once a recording is
// installed, a recording cursor for the first caller, and a plain
// pass-through cursor while a recording is already in flight.
func (m *memoProvider) Open() (Cursor, error) {
	m.mu.Lock()
	if m.trace != nil {
		tr := m.trace
		m.mu.Unlock()
		return tr.Open()
	}
	if m.recording {
		m.mu.Unlock()
		return m.src.Open()
	}
	m.recording = true
	m.mu.Unlock()

	cur, err := m.src.Open()
	if err != nil {
		m.abandon()
		return nil, err
	}
	return &recordingCursor{
		m:     m,
		cur:   cur,
		trace: make(Trace, 0, m.src.Slots()),
		left:  m.maxBytes,
	}, nil
}

// abandon releases the recording claim without installing a trace.
func (m *memoProvider) abandon() {
	m.mu.Lock()
	m.recording = false
	m.mu.Unlock()
}

// install publishes a completed recording.
func (m *memoProvider) install(tr Trace) {
	m.mu.Lock()
	if m.trace == nil {
		m.trace = tr
	}
	m.recording = false
	m.mu.Unlock()
}

// recordingCursor streams from the underlying cursor while copying
// each burst into a growing trace. It installs the trace on Close if
// the full stream was served cleanly within budget; any shortfall —
// early Close, a stream error, an exhausted budget — abandons the
// recording and the wrapper stays transparent.
type recordingCursor struct {
	m     *memoProvider
	cur   Cursor
	trace Trace // nil once recording is abandoned mid-stream
	left  int   // remaining byte budget
}

// Next implements Source: serve the underlying burst, retaining a
// copy while the recording is alive and within budget.
func (c *recordingCursor) Next() []pkt.Packet {
	burst := c.cur.Next()
	if c.trace != nil {
		c.left -= slotBytes + packetBytes*len(burst)
		if c.left < 0 {
			c.trace = nil // over budget: stop retaining
		} else {
			// Copy rather than retain: the burst is borrowed (Source
			// contract), and a generator overwrites it on the next
			// call. Replays of the installed trace then lend these
			// copies out in place.
			var rec []pkt.Packet
			if len(burst) > 0 {
				rec = append(rec, burst...)
			}
			c.trace = append(c.trace, rec)
		}
	}
	return burst
}

// Err implements Cursor.
func (c *recordingCursor) Err() error { return c.cur.Err() }

// Close implements Cursor: install the recording when it covers the
// whole stream without error, abandon it otherwise.
func (c *recordingCursor) Close() error {
	err := c.cur.Close()
	if c.trace != nil && len(c.trace) == c.m.Slots() && c.cur.Err() == nil && err == nil {
		c.m.install(c.trace)
	} else {
		c.m.abandon()
	}
	c.trace = nil
	return err
}

var _ Provider = (*memoProvider)(nil)
