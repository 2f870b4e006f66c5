package main

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// epoch anchors every span timestamp.
var epoch = time.Now()

// nanotime returns monotonic nanoseconds since epoch.
func nanotime() int64 { return int64(time.Since(epoch)) }

// span is one timed interval of the traced run. Spans of one workload
// share a trace id; a child names its parent's id.
type span struct {
	Trace  string         `json:"trace_id"`
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps a workload's spans and histograms in memory until the
// run ends.
type spanLog struct {
	trace  string
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	hists  map[string]*hist
}

// newSpanLog starts an empty log for one trace id.
func newSpanLog(trace string) *spanLog {
	return &spanLog{trace: trace, hists: map[string]*hist{}}
}

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (l *spanLog) id() int64 { return l.nextID.Add(1) }

// record stores one finished span under a reserved id.
func (l *spanLog) record(id, parent int64, name string, start, end int64, attrs map[string]any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Trace: l.trace, ID: id, Parent: parent, Name: name, Start: start, End: end, Attrs: attrs})
}

// addHist merges a histogram under a name.
func (l *spanLog) addHist(name string, h *hist) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hists[name] == nil {
		l.hists[name] = new(hist)
	}
	l.hists[name].merge(h)
}

// write dumps the spans and histograms to path as one JSON document.
func (l *spanLog) write(path, workload string, seed int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	type histJSON struct {
		// UpperNs[i] is the exclusive upper edge of bucket i in ns.
		UpperNs []uint64 `json:"upper_ns"`
		Counts  []uint64 `json:"counts"`
	}
	hs := map[string]histJSON{}
	for name, h := range l.hists {
		var hj histJSON
		last := 0
		for i, n := range h {
			if n > 0 {
				last = i
			}
		}
		for i := 0; i <= last; i++ {
			hj.UpperNs = append(hj.UpperNs, uint64(1)<<i)
			hj.Counts = append(hj.Counts, h[i])
		}
		hs[name] = hj
	}
	return writeJSON(path, map[string]any{
		"workload":   workload,
		"seed":       seed,
		"spans":      l.spans,
		"histograms": hs,
	})
}

// hist is a log2 histogram of durations: bucket i counts values v with
// bits.Len64(v) == i, that is v in [2^(i-1), 2^i).
type hist [64]uint64

// add counts one duration.
func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h[bits.Len64(uint64(ns))]++
}

// merge adds o into h.
func (h *hist) merge(o *hist) {
	for i := range h {
		h[i] += o[i]
	}
}

// timing aggregates the calls of one timed function at slot
// granularity: busy time, call count, items handled (packets or
// slots), and a histogram of per-call durations.
type timing struct {
	busy  int64
	calls int64
	items int64
	h     hist
}

// add counts one call of ns nanoseconds over items items.
func (t *timing) add(ns int64, items int) {
	t.busy += ns
	t.calls++
	t.items += int64(items)
	t.h.add(ns)
}

// merge adds o into t.
func (t *timing) merge(o *timing) {
	t.busy += o.busy
	t.calls += o.calls
	t.items += o.items
	t.h.merge(&o.h)
}

// perItem returns busy nanoseconds per item, or 0 with no items.
func (t *timing) perItem() float64 {
	if t.items == 0 {
		return 0
	}
	return float64(t.busy) / float64(t.items)
}

// replay is the timing of one system's replay over one arrival stream:
// a policy switch or an OPT proxy.
type replay struct {
	name     string
	start    int64
	end      int64
	admit    timing // core.Switch.ArriveBatch, items = packets
	transmit timing // core.Switch.Transmit and drains, items = slots
	opt      timing // OPT proxy Step and drains, items = slots
	occSum   int64  // Σ buffer occupancy after each slot
	occSlots int64  // slots × ports behind occSum
	stats    core.Stats
}

// timedSystem wraps a sim.System with slot-granularity timers. For a
// *core.Switch it calls the public ArriveBatch then Transmit, which is
// Step exactly, and times each; any other system (the OPT proxies) is
// timed as a whole. The replay ends when the harness reads Stats.
type timedSystem struct {
	sys  sim.System
	sw   *core.Switch
	rep  replay
	done func(*replay)
}

// newTimedSystem wraps sys; done receives the replay once it ends.
func newTimedSystem(sys sim.System, done func(*replay)) *timedSystem {
	sw, _ := sys.(*core.Switch)
	return &timedSystem{sys: sys, sw: sw, rep: replay{name: sys.Name()}, done: done}
}

// Name implements sim.System.
func (t *timedSystem) Name() string { return t.sys.Name() }

// Step implements sim.System.
func (t *timedSystem) Step(arrivals []pkt.Packet) error {
	t0 := nanotime()
	if t.rep.start == 0 {
		t.rep.start = t0
	}
	if t.sw == nil {
		err := t.sys.Step(arrivals)
		t.rep.opt.add(nanotime()-t0, 1)
		return err
	}
	if err := t.sw.ArriveBatch(arrivals); err != nil {
		return err
	}
	t1 := nanotime()
	t.sw.Transmit()
	t2 := nanotime()
	t.rep.admit.add(t1-t0, len(arrivals))
	t.rep.transmit.add(t2-t1, 1)
	t.rep.occSum += int64(t.sw.Occupancy())
	t.rep.occSlots += int64(t.sw.Ports())
	return nil
}

// DrainMax implements sim.BoundedDrainer, timing the drain as transmit
// (or OPT) work.
func (t *timedSystem) DrainMax(max int) (int, bool) {
	t0 := nanotime()
	var n int
	drained := true
	if bd, ok := t.sys.(sim.BoundedDrainer); ok {
		n, drained = bd.DrainMax(max)
	} else {
		n = t.sys.Drain()
	}
	t.drained(nanotime()-t0, n)
	return n, drained
}

// Drain implements sim.System.
func (t *timedSystem) Drain() int {
	t0 := nanotime()
	n := t.sys.Drain()
	t.drained(nanotime()-t0, n)
	return n
}

// drained books one drain of n slots.
func (t *timedSystem) drained(ns int64, n int) {
	if t.sw == nil {
		t.rep.opt.add(ns, n)
	} else {
		t.rep.transmit.add(ns, n)
	}
}

// Stats implements sim.System; the first call ends the replay.
func (t *timedSystem) Stats() core.Stats {
	st := t.sys.Stats()
	if t.done != nil {
		t.rep.end = nanotime()
		t.rep.stats = st
		t.done(&t.rep)
		t.done = nil
	}
	return st
}

// Reset implements sim.System.
func (t *timedSystem) Reset() { t.sys.Reset() }

// timedProvider wraps a traffic.Provider so every cursor's Next is
// timed: under sim's memoizing provider this is exactly the MMPP
// generation cost.
type timedProvider struct {
	src  traffic.Provider
	done func(*timing)
}

// Slots implements traffic.Provider.
func (p *timedProvider) Slots() int { return p.src.Slots() }

// Open implements traffic.Provider.
func (p *timedProvider) Open() (traffic.Cursor, error) {
	cur, err := p.src.Open()
	if err != nil {
		return nil, err
	}
	return &timedCursor{cur: cur, done: p.done}, nil
}

// timedCursor times Next calls; Close hands the timing over.
type timedCursor struct {
	cur  traffic.Cursor
	t    timing
	done func(*timing)
}

// Next implements traffic.Source; items are packets.
func (c *timedCursor) Next() []pkt.Packet {
	t0 := nanotime()
	b := c.cur.Next()
	c.t.add(nanotime()-t0, len(b))
	return b
}

// Err implements traffic.Cursor.
func (c *timedCursor) Err() error { return c.cur.Err() }

// Close implements traffic.Cursor.
func (c *timedCursor) Close() error {
	if c.done != nil {
		c.done(&c.t)
		c.done = nil
	}
	return c.cur.Close()
}

// coreTotals sums replays of core switches and OPT proxies.
type coreTotals struct {
	admit, transmit, opt         timing
	arrived, accepted, pushedOut int64
	occSum, occSlots             int64
	perPolicy                    map[string]*timing // admit timing by policy name
}

// add folds one finished replay into the totals.
func (ct *coreTotals) add(r *replay) {
	ct.opt.merge(&r.opt)
	if r.admit.calls == 0 && r.transmit.calls == 0 {
		return // an OPT proxy
	}
	ct.admit.merge(&r.admit)
	ct.transmit.merge(&r.transmit)
	ct.arrived += r.stats.Arrived
	ct.accepted += r.stats.Accepted
	ct.pushedOut += r.stats.PushedOut
	ct.occSum += r.occSum
	ct.occSlots += r.occSlots
	ct.addPolicy(r.name, &r.admit)
}

// merge adds o's totals into ct.
func (ct *coreTotals) merge(o *coreTotals) {
	ct.admit.merge(&o.admit)
	ct.transmit.merge(&o.transmit)
	ct.opt.merge(&o.opt)
	ct.arrived += o.arrived
	ct.accepted += o.accepted
	ct.pushedOut += o.pushedOut
	ct.occSum += o.occSum
	ct.occSlots += o.occSlots
	for name, t := range o.perPolicy {
		ct.addPolicy(name, t)
	}
}

// addPolicy adds one policy's admit timing.
func (ct *coreTotals) addPolicy(name string, t *timing) {
	if ct.perPolicy == nil {
		ct.perPolicy = map[string]*timing{}
	}
	if ct.perPolicy[name] == nil {
		ct.perPolicy[name] = new(timing)
	}
	ct.perPolicy[name].merge(t)
}

// meanDepth is the mean per-queue depth the replays saw, at least 1.
func (ct *coreTotals) meanDepth() int {
	if ct.occSlots == 0 {
		return 1
	}
	return max(1, int(ct.occSum/ct.occSlots+1))
}

// publish records the core, policy and opt layer metrics.
func (ct *coreTotals) publish(o *outcome) {
	o.set("core.admit_ns_per_pkt", "ns", ct.admit.perItem())
	o.set("core.transmit_ns_per_slot", "ns", ct.transmit.perItem())
	o.set("opt.step_ns_per_slot", "ns", ct.opt.perItem())
	if ct.arrived > 0 {
		o.set("core.pushouts_per_arrival", "ratio", float64(ct.pushedOut)/float64(ct.arrived))
		o.set("core.accept_frac", "ratio", float64(ct.accepted)/float64(ct.arrived))
	}
	for name, t := range ct.perPolicy {
		o.set("policy."+name+".admit_ns_per_pkt", "ns", t.perItem())
	}
	o.spans.addHist("core.admit_ns_per_slot", &ct.admit.h)
	o.spans.addHist("core.transmit_ns_per_slot", &ct.transmit.h)
	o.spans.addHist("opt.step_ns_per_slot", &ct.opt.h)
}
