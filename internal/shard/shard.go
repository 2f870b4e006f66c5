package shard

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"smbm/internal/core"
	"smbm/internal/obs"
	"smbm/internal/pkt"
)

// drainCeiling is the absolute per-drain slot cap, matching the sim
// harness's DefaultDrainMax: any correct switch empties in at most
// B·MaxLabel slots, so hitting the ceiling means a wedged shard, not a
// slow one. The bound only turns a hang into an error — it can never
// change a correct drain's outcome, so it does not affect oracle
// bit-identity.
const drainCeiling = 1 << 20

// drainSlack pads the configuration-derived drain bound, mirroring the
// sim harness's slack for boundary effects.
const drainSlack = 64

// drainBound returns the drain-slot budget for one shard's
// configuration: B·MaxLabel plus slack, under the absolute ceiling.
func drainBound(cfg core.Config) int {
	b := cfg.Buffer * cfg.MaxLabel
	if cfg.Buffer > 0 && cfg.MaxLabel > 0 && b/cfg.Buffer != cfg.MaxLabel {
		return drainCeiling
	}
	if b <= 0 || b > drainCeiling-drainSlack {
		return drainCeiling
	}
	return b + drainSlack
}

// LiveSnapshot is the progress part of a shard's published cut: the
// engine counters and the buffer occupancy as of one slot boundary.
type LiveSnapshot struct {
	// Arrived counts packets offered to the shard's policy.
	Arrived int64 `json:"arrived"`
	// Accepted counts admissions.
	Accepted int64 `json:"accepted"`
	// Dropped counts rejections on arrival.
	Dropped int64 `json:"dropped"`
	// PushedOut counts push-out evictions.
	PushedOut int64 `json:"pushed_out"`
	// Transmitted counts completed packets.
	Transmitted int64 `json:"transmitted"`
	// TransmittedValue is the delivered intrinsic value.
	TransmittedValue int64 `json:"transmitted_value"`
	// Slots counts completed time slots, drains included.
	Slots int64 `json:"slots"`
	// Occupancy is the buffered-packet gauge.
	Occupancy int64 `json:"occupancy"`
}

// Add accumulates o into the snapshot, for aggregating across shards.
func (s *LiveSnapshot) Add(o LiveSnapshot) {
	s.Arrived += o.Arrived
	s.Accepted += o.Accepted
	s.Dropped += o.Dropped
	s.PushedOut += o.PushedOut
	s.Transmitted += o.Transmitted
	s.TransmittedValue += o.TransmittedValue
	s.Slots += o.Slots
	s.Occupancy += o.Occupancy
}

// liveWords is the number of cut words the LiveSnapshot lanes occupy,
// ahead of the recorder slab.
const liveWords = 8

// encode writes the snapshot's lanes into w[:liveWords].
func (s LiveSnapshot) encode(w []uint64) {
	w[0], w[1], w[2], w[3] = uint64(s.Arrived), uint64(s.Accepted), uint64(s.Dropped), uint64(s.PushedOut)
	w[4], w[5], w[6], w[7] = uint64(s.Transmitted), uint64(s.TransmittedValue), uint64(s.Slots), uint64(s.Occupancy)
}

// decodeLive reads the lanes encode wrote.
func decodeLive(w []uint64) LiveSnapshot {
	return LiveSnapshot{
		Arrived: int64(w[0]), Accepted: int64(w[1]), Dropped: int64(w[2]), PushedOut: int64(w[3]),
		Transmitted: int64(w[4]), TransmittedValue: int64(w[5]), Slots: int64(w[6]), Occupancy: int64(w[7]),
	}
}

// Cut is one consistent read of a shard's telemetry: the live counters
// and the per-port decision slab, all as of the same publish. Every cut
// closes the conservation identities exactly (Arrived = Accepted +
// Dropped, Accepted = PushedOut + Transmitted + Occupancy, and the slab's
// admit, tail-drop and push-out lanes sum to Accepted, Dropped and
// PushedOut), which a per-counter read cannot promise mid-stream.
type Cut struct {
	// Live holds the engine counters and occupancy.
	Live LiveSnapshot
	// Counts is the obs recorder's flat counter slab (port-major,
	// obs.NumKinds lanes per port).
	Counts []uint64
}

// seqCut is a single-writer seqlock over a fixed vector of words. The
// writer makes the sequence odd, stores the words, and makes it even
// again; a reader retries until it loads the same even sequence before
// and after its word loads. Every word access is atomic, so a reader
// racing the writer reads stale or mixed words, never torn ones, and
// the sequence check rejects the mixed reads.
type seqCut struct {
	seq   atomic.Uint64
	words []uint64
}

// store publishes src as the next cut; one writer at a time.
func (c *seqCut) store(src []uint64) {
	c.seq.Add(1)
	for i, v := range src {
		atomic.StoreUint64(&c.words[i], v)
	}
	c.seq.Add(1)
}

// load copies the first len(dst) words of the latest complete cut into
// dst, from any goroutine.
func (c *seqCut) load(dst []uint64) {
	for {
		if s := c.seq.Load(); s&1 == 0 {
			for i := range dst {
				dst[i] = atomic.LoadUint64(&c.words[i])
			}
			if c.seq.Load() == s {
				return
			}
		}
		runtime.Gosched()
	}
}

// Result is one shard's bit-exact outcome after a drain barrier: the
// same triple the single-threaded oracle produces for the shard's
// traffic partition, so equality is byte-for-byte.
type Result struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Slots is the number of slots the shard stepped before draining.
	Slots int64 `json:"slots"`
	// Stats is the shard switch's conservation-checked counters.
	Stats core.Stats `json:"stats"`
	// Ports is the per-local-port counter table.
	Ports []core.PortCounters `json:"ports"`
	// Counts is the obs recorder's flat counter slab (port-major,
	// obs.NumKinds lanes per port).
	Counts []uint64 `json:"counts"`
}

// DiffResult compares a shard result against an oracle run of the same
// traffic partition and returns a description of the first mismatch,
// or "" when the results are bit-identical.
func DiffResult(got Result, wantStats core.Stats, wantPorts []core.PortCounters, wantCounts []uint64) string {
	if got.Stats != wantStats {
		return fmt.Sprintf("shard %d stats diverge: got %+v want %+v", got.Shard, got.Stats, wantStats)
	}
	if len(got.Ports) != len(wantPorts) {
		return fmt.Sprintf("shard %d port-counter length: got %d want %d", got.Shard, len(got.Ports), len(wantPorts))
	}
	for i := range got.Ports {
		if got.Ports[i] != wantPorts[i] {
			return fmt.Sprintf("shard %d port %d counters diverge: got %+v want %+v", got.Shard, i, got.Ports[i], wantPorts[i])
		}
	}
	if len(got.Counts) != len(wantCounts) {
		return fmt.Sprintf("shard %d obs slab length: got %d want %d", got.Shard, len(got.Counts), len(wantCounts))
	}
	for i := range got.Counts {
		if got.Counts[i] != wantCounts[i] {
			return fmt.Sprintf("shard %d obs counter %d diverges: got %d want %d", got.Shard, i, got.Counts[i], wantCounts[i])
		}
	}
	return ""
}

// Shard is one port-partition worker: a private deterministic
// core.Switch stepped single-threaded by the shard goroutine, fed
// packed entries through an SPSC ingress ring. All mutable switch
// state is confined to the shard goroutine; the only cross-goroutine
// surfaces are the ring, the published cut, and the ack channel that
// publishes drain barriers.
type Shard struct {
	id   int
	cfg  core.Config
	ring *Ring
	// in receives each PopBatch; shard goroutine only.
	in []Entry

	sw  *core.Switch
	rec *obs.Recorder
	// words stages the next cut (LiveSnapshot lanes, then the recorder
	// slab) and cut publishes it; written by the shard goroutine, or by
	// the producer while the shard is parked (see reset).
	words []uint64
	cut   seqCut

	// batch stages the current slot's arrivals, grown by append and
	// reused from [:0] every slot; always belongs to slot `slot`
	// (arrivals are non-decreasing in slot).
	batch []pkt.Packet
	// slot is the number of slots stepped so far == the next slot to
	// execute.
	slot int64
	// err is the first protocol or engine failure; after it is set the
	// shard keeps consuming (so producers never block forever) but
	// discards arrivals.
	err error

	// ack delivers one error (nil on success) per OpDrain barrier.
	ack chan error
	// done closes when the shard goroutine exits on OpStop.
	done chan struct{}
}

// newShard builds a shard over its partition-local configuration.
func newShard(id int, cfg core.Config, pol core.Policy, ringCap int) (*Shard, error) {
	sw, err := core.New(cfg, pol)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}
	rec := obs.NewRecorder(cfg.Ports, 0)
	sw.SetRecorder(rec)
	n := liveWords + cfg.Ports*int(obs.NumKinds)
	sh := &Shard{
		id:    id,
		cfg:   cfg,
		ring:  NewRing(ringCap),
		in:    make([]Entry, popBatch),
		batch: make([]pkt.Packet, 0, 64),
		sw:    sw,
		rec:   rec,
		words: make([]uint64, n),
		cut:   seqCut{words: make([]uint64, n)},
		ack:   make(chan error, 1),
		done:  make(chan struct{}),
	}
	return sh, nil
}

// ID returns the shard index.
func (sh *Shard) ID() int { return sh.id }

// Config returns the shard's partition-local configuration.
func (sh *Shard) Config() core.Config { return sh.cfg }

// Cut reads the shard's latest published cut, from any goroutine.
func (sh *Shard) Cut() Cut {
	w := make([]uint64, len(sh.words))
	sh.cut.load(w)
	return Cut{Live: decodeLive(w), Counts: w[liveWords:]}
}

// Live reads the live counters of the shard's latest published cut,
// from any goroutine, without allocating.
func (sh *Shard) Live() LiveSnapshot {
	var w [liveWords]uint64
	sh.cut.load(w[:])
	return decodeLive(w[:])
}

// popBatch bounds how many entries one PopBatch moves into the shard:
// enough to amortize the head publish over a busy slot's arrivals.
const popBatch = 256

// run is the shard event loop; exactly one goroutine executes it. It
// drains the ring a batch at a time and handles the entries in ring
// order. A drain barrier's ack is always the last entry of its batch,
// because the producer pushes nothing more until it has the ack.
//
// Telemetry is published once per batch, not per slot: after the last
// entry, if the batch stepped at least one slot. A backed-up ring thus
// pays one publish for many slots, and an idle shard has published its
// last stepped slot before PopBatch parks it. A drain publishes before
// its ack and nothing after it: once acked, the shard's state belongs to
// the producer, whose BeginStream resets it.
func (sh *Shard) run() {
	defer close(sh.done)
	for {
		n := sh.ring.PopBatch(sh.in)
		from, acked := sh.slot, false
		for _, e := range sh.in[:n] {
			if !e.IsControl() {
				sh.stage(e)
				continue
			}
			switch e.Op() {
			case OpAdvance:
				sh.advanceTo(e.Slot())
			case OpDrain:
				sh.advanceTo(e.Slot())
				sh.drain()
				sh.publish()
				acked = true
				sh.ack <- sh.err
			case OpStop:
				return
			}
		}
		if !acked && sh.slot != from {
			sh.publish()
		}
	}
}

// stage buffers one arrival for its slot, stepping forward first if
// the arrival opens a later slot.
func (sh *Shard) stage(e Entry) {
	if sh.err != nil {
		return
	}
	slot := e.Slot()
	if slot < sh.slot {
		sh.err = fmt.Errorf("shard %d: arrival for slot %d after slot %d was stepped", sh.id, slot, sh.slot)
		return
	}
	if slot > sh.slot {
		sh.advanceTo(slot)
		if sh.err != nil {
			return
		}
	}
	sh.batch = append(sh.batch, e.Packet())
}

// advanceTo steps the switch until the slot counter reaches target:
// the staged batch feeds the current slot, every further slot is
// empty. On engine failure the shard records the error and fast-forwards
// its counter so the producer protocol stays in sync.
func (sh *Shard) advanceTo(target int64) {
	for sh.slot < target {
		if sh.err != nil {
			sh.batch = sh.batch[:0]
			sh.slot = target
			return
		}
		if err := sh.sw.Step(sh.batch); err != nil {
			sh.err = fmt.Errorf("shard %d at slot %d: %w", sh.id, sh.slot, err)
		}
		sh.batch = sh.batch[:0]
		sh.slot++
	}
}

// drain empties the switch, bounded the same way the sim harness
// bounds drains so a wedged shard errors instead of spinning. Arrivals
// still staged here belong to a slot at or past the barrier, one the
// producer never completed (a stream cut mid-slot), so they are
// discarded: a barrier steps exactly the slots below it.
func (sh *Shard) drain() {
	sh.batch = sh.batch[:0]
	if sh.err != nil {
		return
	}
	if slots, ok := sh.sw.DrainMax(drainBound(sh.cfg)); !ok {
		sh.err = fmt.Errorf("shard %d: drain did not empty the buffer within %d slots", sh.id, slots)
	}
}

// publish stores the shard's counters as its next cut; shard goroutine
// only, or the producer while the shard is parked (see reset).
func (sh *Shard) publish() {
	s := sh.sw.Stats()
	LiveSnapshot{
		Arrived:          s.Arrived,
		Accepted:         s.Accepted,
		Dropped:          s.Dropped,
		PushedOut:        s.PushedOut,
		Transmitted:      s.Transmitted,
		TransmittedValue: s.TransmittedValue,
		Slots:            s.Slots,
		Occupancy:        int64(sh.sw.Occupancy()),
	}.encode(sh.words)
	sh.rec.SaveCounts(sh.words[liveWords:])
	sh.cut.store(sh.words)
}

// result snapshots the shard's bit-exact outcome. Only safe after a
// drain barrier's ack (or before Start), when the shard goroutine is
// parked and the ack receive established the happens-before edge.
func (sh *Shard) result() Result {
	return Result{
		Shard:  sh.id,
		Slots:  sh.slot,
		Stats:  sh.sw.Stats(),
		Ports:  sh.sw.PortCounters(),
		Counts: sh.rec.SaveCounts(nil),
	}
}

// reset restores the shard to its initial empty state for a new
// stream. Same safety contract as result.
func (sh *Shard) reset() {
	sh.sw.Reset()
	sh.rec.Reset()
	sh.batch = sh.batch[:0]
	sh.slot = 0
	sh.err = nil
	sh.publish()
}
