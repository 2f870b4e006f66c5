package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"smbm/internal/obs"
	"smbm/internal/pkt"
)

// snapState captures the switch state the prefix-applied contract
// speaks about: queues, Stats, per-port counters and the recorder's
// counters and trace events.
type snapState struct {
	stats   Stats
	perPort []PortCounters
	occ     int
	lens    []int
	works   []int
	mins    []int
	sums    []int64
	obsSnap *obs.Snapshot
}

func captureState(s *Switch, rec *obs.Recorder) snapState {
	st := snapState{
		stats:   s.Stats(),
		perPort: s.PortCounters(),
		occ:     s.Occupancy(),
		lens:    append([]int(nil), s.QueueLens()...),
		works:   append([]int(nil), s.QueueTotalWorks()...),
		mins:    append([]int(nil), s.QueueMinValues()...),
		sums:    append([]int64(nil), s.QueueSums()...),
	}
	if rec != nil {
		st.obsSnap = rec.Snapshot()
	}
	return st
}

func requireState(t *testing.T, got, want snapState) {
	t.Helper()
	if got.stats != want.stats {
		t.Errorf("Stats differ\n got: %+v\nwant: %+v", got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.perPort, want.perPort) {
		t.Errorf("PortCounters differ\n got: %+v\nwant: %+v", got.perPort, want.perPort)
	}
	if got.occ != want.occ {
		t.Errorf("Occupancy = %d, want %d", got.occ, want.occ)
	}
	if !reflect.DeepEqual(got.lens, want.lens) {
		t.Errorf("QueueLens = %v, want %v", got.lens, want.lens)
	}
	if !reflect.DeepEqual(got.works, want.works) {
		t.Errorf("QueueTotalWorks = %v, want %v", got.works, want.works)
	}
	if !reflect.DeepEqual(got.mins, want.mins) {
		t.Errorf("QueueMinValues = %v, want %v", got.mins, want.mins)
	}
	if !reflect.DeepEqual(got.sums, want.sums) {
		t.Errorf("QueueSums = %v, want %v", got.sums, want.sums)
	}
	if !reflect.DeepEqual(got.obsSnap, want.obsSnap) {
		t.Errorf("obs snapshots differ\n got: %+v\nwant: %+v", got.obsSnap, want.obsSnap)
	}
}

// scriptPolicy admits according to a fixed per-call decision script
// and drops once the script is exhausted.
type scriptPolicy struct {
	script []Decision
	calls  int
}

func (p *scriptPolicy) Name() string { return "script" }

func (p *scriptPolicy) Admit(View, pkt.Packet) Decision {
	if p.calls >= len(p.script) {
		return Drop()
	}
	d := p.script[p.calls]
	p.calls++
	return d
}

// checkPrefixApplied pins the prefix-applied contract. Two switches
// accept fill, then one offers burst under the decisions decided
// followed by the failing decision bad, the other offers only
// burst[:len(decided)] under decided. The failing burst must report
// the failing index with exactly that many packets applied, leave the
// switch identical to the prefix run — queues, Stats, PortCounters,
// obs counters and trace events — and the switch must keep stepping
// with invariant checking on.
func checkPrefixApplied(t *testing.T, cfg Config, fill, burst []pkt.Packet, decided []Decision, bad Decision, wantErr string) {
	t.Helper()
	cfg.CheckInvariants = true
	i := len(decided)
	run := func(tail ...Decision) (*Switch, *obs.Recorder) {
		script := make([]Decision, len(fill), len(fill)+len(tail))
		for k := range script {
			script[k] = Accept()
		}
		sw := MustNew(cfg, &scriptPolicy{script: append(script, tail...)})
		rec := obs.NewRecorder(cfg.Ports, 32)
		sw.SetRecorder(rec)
		if err := sw.ArriveBatch(fill); err != nil {
			t.Fatalf("fill: %v", err)
		}
		return sw, rec
	}
	faulty, faultyRec := run(append(append([]Decision(nil), decided...), bad)...)
	prefix, prefixRec := run(decided...)
	preEvents := len(faultyRec.Snapshot().Events)

	err := faulty.ArriveBatch(burst)
	var be *BurstError
	if !errors.As(err, &be) {
		t.Fatalf("ArriveBatch error = %v, want *BurstError", err)
	}
	if be.Index != i || be.Applied != i {
		t.Errorf("BurstError = {Index: %d, Applied: %d}, want {Index: %d, Applied: %d}", be.Index, be.Applied, i, i)
	}
	if !strings.Contains(err.Error(), wantErr) {
		t.Errorf("error %q does not mention %q", err, wantErr)
	}
	if err := prefix.ArriveBatch(burst[:i]); err != nil {
		t.Fatalf("prefix ArriveBatch: %v", err)
	}
	got, want := captureState(faulty, faultyRec), captureState(prefix, prefixRec)
	requireState(t, got, want)

	// Every decided packet traced its events (a push-out traces the
	// eviction and the admission); the failing packet traced nothing.
	wantEvents := preEvents
	for _, d := range decided {
		wantEvents++
		if d.Push {
			wantEvents++
		}
	}
	if n := len(got.obsSnap.Events); n != wantEvents {
		t.Errorf("trace holds %d events, want %d", n, wantEvents)
	}

	if err := faulty.verify(); err != nil {
		t.Fatalf("invariants after the failed burst: %v", err)
	}
	if err := faulty.Step(burst[:1]); err != nil {
		t.Fatalf("Step after the failed burst: %v", err)
	}
}

// TestArriveBatchPrefixAppliedProcessing: a tail-drop and a valid
// push-out stay applied when the next decision names an out-of-range
// victim.
func TestArriveBatchPrefixAppliedProcessing(t *testing.T) {
	cfg := validProcCfg()
	cfg.Buffer = 4
	fill := []pkt.Packet{pkt.NewWork(1, 2), pkt.NewWork(1, 2), pkt.NewWork(0, 1), pkt.NewWork(2, 3)}
	burst := []pkt.Packet{pkt.NewWork(3, 6), pkt.NewWork(3, 6), pkt.NewWork(3, 6), pkt.NewWork(0, 1)}
	checkPrefixApplied(t, cfg, fill, burst, []Decision{Drop(), PushOut(1)}, PushOut(99), "out of range")
}

// TestArriveBatchPrefixAppliedValue: a push-out of the victim's
// minimum and a tail-drop stay applied when the next decision accepts
// into the full buffer.
func TestArriveBatchPrefixAppliedValue(t *testing.T) {
	cfg := validValCfg()
	cfg.Buffer = 4
	fill := []pkt.Packet{pkt.NewValue(0, 1), pkt.NewValue(0, 3), pkt.NewValue(1, 2), pkt.NewValue(2, 4)}
	burst := []pkt.Packet{pkt.NewValue(0, 4), pkt.NewValue(3, 1), pkt.NewValue(1, 4)}
	checkPrefixApplied(t, cfg, fill, burst, []Decision{PushOut(0), Drop()}, Accept(), "full buffer")
}

// TestArriveBatchTraceBuffering: a failed batch traces the events of
// its decided prefix, in decision order, and none for the failing
// packet; a later batch appends its own events after them.
func TestArriveBatchTraceBuffering(t *testing.T) {
	cfg := validProcCfg()
	cfg.Buffer = 4
	// Decisions 0-3 fill the buffer; the faulty batch drops (decision 4,
	// traced) then accepts into the full buffer (decision 5, fails and
	// traces nothing); decision 6 is the next batch's drop.
	script := &scriptPolicy{script: []Decision{
		Accept(), Accept(), Accept(), Accept(),
		Drop(), Accept(),
		Drop(),
	}}
	sw := MustNew(cfg, script)
	rec := obs.NewRecorder(cfg.Ports, 16)
	sw.SetRecorder(rec)

	if err := sw.ArriveBatch([]pkt.Packet{
		pkt.NewWork(0, 1), pkt.NewWork(0, 1), pkt.NewWork(0, 1), pkt.NewWork(0, 1),
	}); err != nil {
		t.Fatal(err)
	}
	preEvents := len(rec.Snapshot().Events)

	if err := sw.ArriveBatch([]pkt.Packet{pkt.NewWork(1, 2), pkt.NewWork(2, 3)}); err == nil {
		t.Fatal("faulty batch succeeded")
	}
	events := rec.Snapshot().Events
	if len(events) != preEvents+1 {
		t.Fatalf("trace ring holds %d events after the failed batch, want %d (the prefix's drop only)", len(events), preEvents+1)
	}
	if last := events[len(events)-1]; last.Kind != obs.KindTailDrop || last.Port != 1 {
		t.Errorf("failed batch traced %+v, want the prefix's tail-drop on port 1", last)
	}

	if err := sw.ArriveBatch([]pkt.Packet{pkt.NewWork(3, 6)}); err != nil {
		t.Fatal(err)
	}
	events = rec.Snapshot().Events
	if len(events) != preEvents+2 {
		t.Fatalf("trace ring holds %d events, want %d", len(events), preEvents+2)
	}
	if e := events[len(events)-2]; e.Kind != obs.KindTailDrop || e.Port != 1 {
		t.Errorf("event %d = %+v, want the failed batch's tail-drop on port 1", len(events)-2, e)
	}
	if last := events[len(events)-1]; last.Kind != obs.KindTailDrop || last.Port != 3 {
		t.Errorf("last event = %+v, want tail-drop on port 3", last)
	}
}

// lazyBatch is a BatchPolicy whose kernel forgets the tail of the burst.
type lazyBatch struct{}

func (lazyBatch) Name() string { return "lazy" }

func (lazyBatch) Admit(v View, _ pkt.Packet) Decision {
	if v.Free() > 0 {
		return Accept()
	}
	return Drop()
}

func (lazyBatch) AdmitBatch(b *Batch, ps []pkt.Packet) {
	if len(ps) > 0 {
		b.apply(Accept(), ps[0])
	}
}

// TestArriveBatchUndecidedKernel: a kernel that decides fewer packets
// than it was handed is a policy bug; the engine must report it and
// keep the decided prefix applied.
func TestArriveBatchUndecidedKernel(t *testing.T) {
	cfg := validProcCfg()
	cfg.CheckInvariants = true
	sw := MustNew(cfg, lazyBatch{})
	err := sw.ArriveBatch([]pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(0, 1)})
	if err == nil || !strings.Contains(err.Error(), "decided 1 of 2") {
		t.Fatalf("ArriveBatch error = %v, want undecided-packet report", err)
	}
	var be *BurstError
	if !errors.As(err, &be) || be.Index != 1 || be.Applied != 1 {
		t.Fatalf("ArriveBatch error = %#v, want {Index: 1, Applied: 1}", err)
	}
	if st := sw.Stats(); st.Arrived != 1 || st.Accepted != 1 || sw.Occupancy() != 1 {
		t.Errorf("after the undecided burst: stats %+v occupancy %d, want the one decided accept", st, sw.Occupancy())
	}
	if err := sw.Step([]pkt.Packet{pkt.NewWork(1, 2)}); err != nil {
		t.Fatalf("Step after the undecided burst: %v", err)
	}
}

// TestArriveBatchValidationAppliesNothing: a malformed packet anywhere
// in the burst fails it before the first decision, so even the
// well-formed packets before it leave no trace.
func TestArriveBatchValidationAppliesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  pkt.Packet
	}{
		{"invalid port", pkt.NewWork(99, 1)},
		{"work/port mismatch", pkt.NewWork(1, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw := MustNew(validProcCfg(), greedy)
			rec := obs.NewRecorder(sw.Ports(), 16)
			sw.SetRecorder(rec)
			err := sw.ArriveBatch([]pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(1, 2), tc.bad, pkt.NewWork(2, 3)})
			var be *BurstError
			if !errors.As(err, &be) {
				t.Fatalf("ArriveBatch error = %v, want *BurstError", err)
			}
			if be.Index != 2 || be.Applied != 0 {
				t.Errorf("BurstError = {Index: %d, Applied: %d}, want {Index: 2, Applied: 0}", be.Index, be.Applied)
			}
			if be.Unwrap() == nil {
				t.Error("BurstError.Unwrap returned nil")
			}
			if st := sw.Stats(); st != (Stats{}) || sw.Occupancy() != 0 {
				t.Errorf("validation failure applied packets: stats %+v occupancy %d", st, sw.Occupancy())
			}
			if n := len(rec.Snapshot().Events); n != 0 {
				t.Errorf("validation failure traced %d events", n)
			}
		})
	}
}

// TestQueueTotalWorksValueModel pins the value-model meaning of
// QueueTotalWorks: every packet carries unit work, so the per-queue
// total work is the queue length itself (the engine returns its live
// length mirror). LWD's victim on the total-work lane therefore
// coincides with LQD's on the length lane in this model.
func TestQueueTotalWorksValueModel(t *testing.T) {
	sw := MustNew(validValCfg(), greedy)
	if err := sw.ArriveBatch([]pkt.Packet{
		pkt.NewValue(0, 2), pkt.NewValue(0, 3), pkt.NewValue(2, 1),
	}); err != nil {
		t.Fatal(err)
	}
	tw := sw.QueueTotalWorks()
	for i := 0; i < sw.Ports(); i++ {
		if tw[i] != sw.QueueLen(i) {
			t.Errorf("QueueTotalWorks()[%d] = %d, want queue length %d", i, tw[i], sw.QueueLen(i))
		}
	}
	if want := []int{2, 0, 1, 0}; !reflect.DeepEqual(tw, want) {
		t.Errorf("QueueTotalWorks() = %v, want %v", tw, want)
	}
}

// TestFastViewAliasingDetected is the regression test for the FastView
// slice-aliasing bug class: a policy that writes through a
// FastView-returned slice corrupts engine state the engine itself never
// rewrites per-slot. The engine must (a) keep the caller's Config slice
// isolated from the corruption, (b) detect the tamper via invariant
// verification, and (c) recover fully on Reset. The fastviewro smblint
// analyzer forbids such writes statically in the policy packages; this
// test pins the dynamic defenses for policies outside them.
func TestFastViewAliasingDetected(t *testing.T) {
	cfg := validProcCfg()
	cfg.CheckInvariants = true
	callerWorks := append([]int(nil), cfg.PortWork...)

	mutator := PolicyFunc{PolicyName: "mutator", Func: func(v View, _ pkt.Packet) Decision {
		f := v.(FastView)
		f.PortWorks()[0] = 999 // illegal: FastView slices are read-only
		return Accept()
	}}
	sw := MustNew(cfg, mutator)
	err := sw.Arrive(pkt.NewWork(0, 1))
	if err == nil || !strings.Contains(err.Error(), "read-only FastView slice") {
		t.Fatalf("Arrive error = %v, want work-table tamper report", err)
	}
	if !reflect.DeepEqual(cfg.PortWork, callerWorks) {
		t.Errorf("caller's Config.PortWork mutated to %v (engine must own a private copy)", cfg.PortWork)
	}

	// Reset restores the pristine work table from the engine's private
	// reference copy; the switch must be fully usable again.
	sw.Reset()
	if err := sw.SetPolicy(greedy); err != nil {
		t.Fatal(err)
	}
	if err := sw.Step([]pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(1, 2)}); err != nil {
		t.Fatalf("post-Reset Step: %v", err)
	}

	// Queue-length tampering is likewise caught by the occupancy/mirror
	// cross-check.
	lenMutator := PolicyFunc{PolicyName: "len-mutator", Func: func(v View, _ pkt.Packet) Decision {
		v.(FastView).QueueLens()[1] += 3
		return Accept()
	}}
	sw2 := MustNew(cfg, lenMutator)
	if err := sw2.Arrive(pkt.NewWork(0, 1)); err == nil {
		t.Error("queue-length tamper went undetected under CheckInvariants")
	}
}
