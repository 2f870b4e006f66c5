package shard

import (
	"errors"
	"fmt"
	"sync/atomic"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/traffic"
)

// Partition is one shard's contiguous slice [Lo,Hi) of the global port
// space. Contiguity preserves the engine's non-decreasing PortWork
// invariant under slicing, which is what lets each shard run an
// unmodified core.Switch over its remapped local ports.
type Partition struct {
	// Lo is the first global port owned (inclusive).
	Lo int
	// Hi is one past the last global port owned.
	Hi int
}

// Ports returns the number of ports in the partition.
func (p Partition) Ports() int { return p.Hi - p.Lo }

// PartitionPorts splits n global ports across shards as evenly as
// possible, remainders to the lowest shards, contiguously in port
// order.
func PartitionPorts(n, shards int) []Partition {
	parts := make([]Partition, shards)
	base, rem := n/shards, n%shards
	lo := 0
	for i := range parts {
		size := base
		if i < rem {
			size++
		}
		parts[i] = Partition{Lo: lo, Hi: lo + size}
		lo += size
	}
	return parts
}

// ShardConfig derives one shard's engine configuration from the global
// one: the partition's ports, the matching PortWork slice, and a
// proportional share of the shared buffer (remainders to the lowest
// shards, so shares sum exactly to the global B). Because B >= n
// globally, every shard's share stays >= its port count, preserving
// the engine's B >= n precondition.
func ShardConfig(cfg core.Config, parts []Partition, i int) core.Config {
	out := cfg
	p := parts[i]
	out.Ports = p.Ports()
	if cfg.PortWork != nil {
		out.PortWork = append([]int(nil), cfg.PortWork[p.Lo:p.Hi]...)
	}
	// Proportional buffer split with left-to-right remainder: compute
	// this shard's share as the difference of prefix shares so the
	// shares sum exactly to cfg.Buffer.
	prefix := func(ports int) int { return cfg.Buffer * ports / cfg.Ports }
	out.Buffer = prefix(p.Hi) - prefix(p.Lo)
	return out
}

// FilterTrace extracts partition p's arrivals from a global trace,
// remapping ports to shard-local indices — the oracle-side counterpart
// of Ingest's routing. Replaying the filtered trace through the
// single-threaded harness over the shard's configuration must
// reproduce the shard's Result bit-identically; that differential is
// the runtime's correctness argument.
func FilterTrace(tr traffic.Trace, p Partition) traffic.Trace {
	out := make(traffic.Trace, len(tr))
	for t, burst := range tr {
		var local []pkt.Packet
		for _, pk := range burst {
			if pk.Port < p.Lo || pk.Port >= p.Hi {
				continue
			}
			pk.Port -= p.Lo
			local = append(local, pk)
		}
		out[t] = local
	}
	return out
}

// Options tunes a Runtime beyond the engine configuration.
type Options struct {
	// RingCap is each shard's ingress-ring capacity in entries
	// (rounded up to a power of two; default 1<<14).
	RingCap int
}

// Runtime is the sharded concurrent switch: N shards, each owning a
// contiguous port partition and stepping a private deterministic
// core.Switch, fed through per-shard SPSC rings.
//
// Producer-side methods (BeginStream, IngestSlot, Ingest, Advance,
// Finish, EndStream, SetPolicy, Stop) must be called from one goroutine
// at a time — the stream's producer. For sharded producers (one goroutine
// per shard, as in the selftest loadgen), use Feeder, which preserves
// the per-ring SPSC discipline.
type Runtime struct {
	cfg    core.Config
	parts  []Partition
	owner  []int32
	shards []*Shard
	// stage holds IngestSlot's per-shard batches, reused from [:0] every
	// slot; producer side only.
	stage [][]Entry

	started   bool
	stopped   bool
	streaming atomic.Bool
}

// NewRuntime builds a runtime of the given shard count over the global
// configuration, constructing each shard's switch with its own policy
// instance from factory. The configuration must satisfy the engine's
// own invariants plus the ring encoding's: MaxLabel at most 255 and
// fewer than CtlPort ports per shard.
func NewRuntime(cfg core.Config, shards int, factory func() core.Policy, opt Options) (*Runtime, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	if shards > cfg.Ports {
		return nil, fmt.Errorf("shard: %d shards exceed %d ports", shards, cfg.Ports)
	}
	if cfg.MaxLabel > 255 {
		return nil, fmt.Errorf("shard: MaxLabel %d exceeds the ring encoding's 255", cfg.MaxLabel)
	}
	if factory == nil {
		return nil, errors.New("shard: nil policy factory")
	}
	ringCap := opt.RingCap
	if ringCap <= 0 {
		ringCap = 1 << 14
	}
	rt := &Runtime{
		cfg:   cfg,
		parts: PartitionPorts(cfg.Ports, shards),
		owner: make([]int32, cfg.Ports),
	}
	for s, p := range rt.parts {
		if p.Ports() >= CtlPort {
			return nil, fmt.Errorf("shard: shard %d owns %d ports, exceeding the ring encoding's %d", s, p.Ports(), CtlPort-1)
		}
		for g := p.Lo; g < p.Hi; g++ {
			rt.owner[g] = int32(s)
		}
		pol := factory()
		if pol == nil {
			return nil, errors.New("shard: policy factory returned nil")
		}
		sh, err := newShard(s, ShardConfig(cfg, rt.parts, s), pol, ringCap)
		if err != nil {
			return nil, err
		}
		rt.shards = append(rt.shards, sh)
		rt.stage = append(rt.stage, make([]Entry, 0, 64))
	}
	return rt, nil
}

// Config returns the global engine configuration.
func (rt *Runtime) Config() core.Config { return rt.cfg }

// Shards returns the shard count.
func (rt *Runtime) Shards() int { return len(rt.shards) }

// Partition returns shard i's global port range.
func (rt *Runtime) Partition(i int) Partition { return rt.parts[i] }

// ShardConfig returns shard i's partition-local engine configuration.
func (rt *Runtime) ShardConfig(i int) core.Config { return rt.shards[i].cfg }

// Shard returns shard i, for its read-only observability surfaces
// (Cut, Live).
func (rt *Runtime) Shard(i int) *Shard { return rt.shards[i] }

// LiveTotal sums every shard's latest cut. Shards publish
// independently, so the total mixes slot boundaries across shards, but
// each addend is a consistent cut and the linear conservation
// identities hold for the sum.
func (rt *Runtime) LiveTotal() LiveSnapshot {
	var total LiveSnapshot
	for _, sh := range rt.shards {
		total.Add(sh.Live())
	}
	return total
}

// Start launches the shard goroutines. It must be called exactly once
// before any stream.
func (rt *Runtime) Start() {
	if rt.started {
		panic("shard: Runtime started twice")
	}
	rt.started = true
	for _, sh := range rt.shards {
		go sh.run()
	}
}

// BeginStream arms the runtime for one arrival stream, resetting every
// shard to its initial empty state. It fails if a stream is already
// active. Each stream is an independent run: results and counters
// start from zero, while the engine's internal batch serials and memo
// epochs stay monotone across streams by design (see core.Reset).
func (rt *Runtime) BeginStream() error {
	if !rt.started || rt.stopped {
		return errors.New("shard: runtime not running")
	}
	if !rt.streaming.CompareAndSwap(false, true) {
		return errors.New("shard: a stream is already active")
	}
	for _, sh := range rt.shards {
		sh.reset()
	}
	return nil
}

// EndStream disarms the runtime after a stream's drain barrier.
func (rt *Runtime) EndStream() {
	rt.streaming.Store(false)
}

// Streaming reports whether a stream is active.
func (rt *Runtime) Streaming() bool { return rt.streaming.Load() }

// Ingest routes one global-port arrival into its owner shard's ring,
// blocking only when that ring is full (back-pressure). Slot numbers
// must be non-decreasing per stream and below 2^32-1, so that the
// advance and drain past them still fit the ring encoding.
func (rt *Runtime) Ingest(slot int64, p pkt.Packet) error {
	if uint64(slot) >= 1<<32-1 {
		return fmt.Errorf("shard: slot %d exceeds the ring encoding's 32 bits", slot)
	}
	if err := p.Validate(rt.cfg.Ports, rt.cfg.MaxLabel); err != nil {
		return err
	}
	s := rt.owner[p.Port]
	rt.shards[s].ring.Push(rt.arrival(s, slot, p))
	return nil
}

// arrival packs a global-port arrival as an entry for its owner shard s.
func (rt *Runtime) arrival(s int32, slot int64, p pkt.Packet) Entry {
	p.Port -= rt.parts[s].Lo
	return Arrival(slot, p)
}

// IngestSlot hands one complete slot to the shards: the burst's
// arrivals (global ports) followed by the advance past slot, one ring
// batch per shard. It is equivalent to Ingest for every packet and then
// Advance(slot+1), except that the whole burst is validated before
// anything is published: on an error no shard sees any of the slot, so
// a Finish at slot steps exactly the slots already handed over. Slots
// must increase per stream and stay below 2^32-1. It blocks only while
// a shard's ring is full (back-pressure).
func (rt *Runtime) IngestSlot(slot int64, burst []pkt.Packet) error {
	if uint64(slot) >= 1<<32-1 {
		return fmt.Errorf("shard: slot %d exceeds the ring encoding's 32 bits", slot)
	}
	for _, p := range burst {
		if err := p.Validate(rt.cfg.Ports, rt.cfg.MaxLabel); err != nil {
			return fmt.Errorf("shard: slot %d: %w", slot, err)
		}
	}
	for _, p := range burst {
		s := rt.owner[p.Port]
		rt.stage[s] = append(rt.stage[s], rt.arrival(s, slot, p))
	}
	adv := Control(OpAdvance, slot+1)
	for s, sh := range rt.shards {
		rt.stage[s] = append(rt.stage[s], adv)
		sh.ring.PushBatch(rt.stage[s])
		rt.stage[s] = rt.stage[s][:0]
	}
	return nil
}

// Advance tells every shard to step all slots strictly below upto, so
// shards with no recent arrivals keep pace and their published cuts
// stay fresh.
func (rt *Runtime) Advance(upto int64) {
	for _, sh := range rt.shards {
		sh.ring.Push(Control(OpAdvance, upto))
	}
}

// Finish is the stream's drain barrier: every shard steps through slot
// upto-1, drains its switch empty, and publishes; Finish then collects
// the bit-exact per-shard results and ends the stream. The error joins
// every shard's failure (nil when all succeeded); results are returned
// even on error, for diagnosis. An upto the ring encoding cannot carry
// (outside [0, 2^32)) is refused before any shard sees it, and the
// stream stays active.
func (rt *Runtime) Finish(upto int64) ([]Result, error) {
	if !rt.streaming.Load() {
		return nil, errors.New("shard: Finish without an active stream")
	}
	if uint64(upto) >= 1<<32 {
		return nil, fmt.Errorf("shard: drain slot %d exceeds the ring encoding's 32 bits", upto)
	}
	for _, sh := range rt.shards {
		sh.ring.Push(Control(OpDrain, upto))
	}
	var errs []error
	results := make([]Result, len(rt.shards))
	for i, sh := range rt.shards {
		if err := <-sh.ack; err != nil {
			errs = append(errs, err)
		}
		results[i] = sh.result()
	}
	rt.EndStream()
	return results, errors.Join(errs...)
}

// SetPolicy swaps every shard's policy between streams, building one
// instance per shard from factory. It fails while a stream is active
// or when the engine rejects the swap (a non-empty buffer, which
// cannot happen after a Finish barrier).
func (rt *Runtime) SetPolicy(factory func() core.Policy) error {
	if rt.streaming.Load() {
		return errors.New("shard: cannot swap policy during a stream")
	}
	if factory == nil {
		return errors.New("shard: nil policy factory")
	}
	for _, sh := range rt.shards {
		pol := factory()
		if pol == nil {
			return errors.New("shard: policy factory returned nil")
		}
		if err := sh.sw.SetPolicy(pol); err != nil {
			return fmt.Errorf("shard %d: %w", sh.id, err)
		}
	}
	return nil
}

// PolicyName returns the active policy's name.
func (rt *Runtime) PolicyName() string { return rt.shards[0].sw.Name() }

// Stop terminates the shard goroutines and waits for them to exit. The
// runtime cannot be restarted.
func (rt *Runtime) Stop() {
	if !rt.started || rt.stopped {
		return
	}
	rt.stopped = true
	for _, sh := range rt.shards {
		sh.ring.Push(Control(OpStop, 0))
	}
	for _, sh := range rt.shards {
		<-sh.done
	}
}

// Feeder is one shard's producer handle for sharded loadgen: exactly
// one goroutine may drive each feeder, preserving the ring's SPSC
// discipline while different shards' feeders run concurrently.
// Arrivals are shard-local (ports already remapped into [0,
// Partition.Ports())).
type Feeder struct {
	sh *Shard
}

// Feeder returns shard i's producer handle.
func (rt *Runtime) Feeder(i int) Feeder { return Feeder{sh: rt.shards[i]} }

// Arrive pushes one shard-local arrival. The packet must already be
// valid for the shard's configuration; slots must be non-decreasing
// and below 2^32.
func (f Feeder) Arrive(slot int64, p pkt.Packet) {
	f.sh.ring.Push(Arrival(slot, p))
}

// Advance tells the shard to step all slots strictly below upto.
func (f Feeder) Advance(upto int64) {
	f.sh.ring.Push(Control(OpAdvance, upto))
}

// Finish is the per-shard drain barrier: it advances through upto-1,
// drains, waits for the shard's ack, and returns the bit-exact result.
// The caller owns ending the stream via EndStream once every feeder
// finished.
func (f Feeder) Finish(upto int64) (Result, error) {
	f.sh.ring.Push(Control(OpDrain, upto))
	err := <-f.sh.ack
	return f.sh.result(), err
}
