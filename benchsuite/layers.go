package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"

	"smbm/internal/bmset"
	"smbm/internal/core"
	"smbm/internal/deque"
	"smbm/internal/obs"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/shard"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// policyFactory resolves a roster policy of the model by name.
func policyFactory(m core.Model, name string) (func() core.Policy, error) {
	lookup := policy.ByName
	switch m {
	case core.ModelValue:
		lookup = policy.ValueByName
	case core.ModelCombined:
		lookup = policy.CombinedByName
	}
	if lookup(name) == nil {
		return nil, fmt.Errorf("no %s-model policy %q", m, name)
	}
	return func() core.Policy { return lookup(name) }, nil
}

// shardReplay is a single-threaded replay of one stream over the
// per-shard switches of a sharded runtime: the oracle every daemon
// response is checked against.
type shardReplay struct {
	results []shard.Result
	packets int64
	core    coreTotals // timed replays only
	busy    []int64    // timed replays only: per-shard step time
}

// replayShards streams payload through traffic.StreamBinary into one
// core.Switch per shard (shard.ShardConfig, arrivals remapped to local
// ports exactly as Runtime.Ingest routes them), steps every slot, then
// drains within sim.DrainBound. With record each switch carries an
// obs.Recorder, as the daemon's shards do; with timed each switch is
// wrapped in the suite's slot timers. The stream is decoded once and
// never materialized.
func replayShards(cfg core.Config, shards int, factory func() core.Policy, payload []byte, timed, record bool) (*shardReplay, error) {
	parts := shard.PartitionPorts(cfg.Ports, shards)
	owner := make([]int, cfg.Ports)
	sws := make([]*core.Switch, shards)
	systems := make([]sim.System, shards)
	recs := make([]*obs.Recorder, shards)
	reps := make([]*replay, shards)
	for i, p := range parts {
		scfg := shard.ShardConfig(cfg, parts, i)
		sw, err := core.New(scfg, factory())
		if err != nil {
			return nil, fmt.Errorf("oracle shard %d: %w", i, err)
		}
		if record {
			recs[i] = obs.NewRecorder(scfg.Ports, 0)
			sw.SetRecorder(recs[i])
		}
		sws[i], systems[i] = sw, sw
		if timed {
			systems[i] = newTimedSystem(sw, func(r *replay) { reps[i] = r })
		}
		for g := p.Lo; g < p.Hi; g++ {
			owner[g] = i
		}
	}
	cur, slots, err := traffic.StreamBinary(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	out := &shardReplay{}
	batches := make([][]pkt.Packet, shards)
	for t := 0; t < slots; t++ {
		burst := cur.Next()
		if err := cur.Err(); err != nil {
			return nil, err
		}
		out.packets += int64(len(burst))
		for i := range batches {
			batches[i] = batches[i][:0]
		}
		for _, p := range burst {
			if err := p.Validate(cfg.Ports, cfg.MaxLabel); err != nil {
				return nil, err
			}
			s := owner[p.Port]
			p.Port -= parts[s].Lo
			batches[s] = append(batches[s], p)
		}
		for i, sys := range systems {
			if err := sys.Step(batches[i]); err != nil {
				return nil, fmt.Errorf("oracle shard %d at slot %d: %w", i, t, err)
			}
		}
	}
	for i, sys := range systems {
		if _, ok := sys.(sim.BoundedDrainer).DrainMax(sim.DrainBound(sws[i].Config())); !ok {
			return nil, fmt.Errorf("oracle shard %d did not drain", i)
		}
		r := shard.Result{Shard: i, Slots: int64(slots), Stats: sys.Stats(), Ports: sws[i].PortCounters()}
		if record {
			r.Counts = recs[i].SaveCounts(nil)
		}
		out.results = append(out.results, r)
		if timed {
			out.core.add(reps[i])
			out.busy = append(out.busy, reps[i].admit.busy+reps[i].transmit.busy)
		}
	}
	return out, nil
}

// bytesProvider serves a binary-framed payload as a traffic.Provider.
type bytesProvider []byte

// Slots implements traffic.Provider.
func (p bytesProvider) Slots() int { return payloadSlots(p) }

// Open implements traffic.Provider.
func (p bytesProvider) Open() (traffic.Cursor, error) {
	cur, _, err := traffic.StreamBinary(bytes.NewReader(p))
	return cur, err
}

// replicaTiming is the timed part of the in-process replica: the
// daemon's stream loop, call by call.
type replicaTiming struct {
	decode, ingest, advance timing
	begin, finish           []float64 // µs per stream
}

// replicaStream drives one payload through an in-process
// shard.Runtime exactly as smbsimd's stream loop does, without the
// socket: BeginStream, per slot the cursor's Next, Ingest per packet
// and Advance, then Finish. With tm non-nil every call is timed and
// one stream span (begin, feed, finish children) is recorded into log.
func replicaStream(rt *shard.Runtime, payload []byte, tm *replicaTiming, log *spanLog) ([]shard.Result, error) {
	clock := func() int64 {
		if tm == nil {
			return 0
		}
		return nanotime()
	}
	cur, slots, err := traffic.StreamBinary(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	t0 := clock()
	if err := rt.BeginStream(); err != nil {
		return nil, err
	}
	t1 := clock()
	var streamErr error
	processed := 0
	var feed replicaTiming
	for t := 0; t < slots; t++ {
		a := clock()
		burst := cur.Next()
		if streamErr = cur.Err(); streamErr != nil {
			break
		}
		b := clock()
		for _, p := range burst {
			if streamErr = rt.Ingest(int64(t), p); streamErr != nil {
				break
			}
		}
		if streamErr != nil {
			break
		}
		c := clock()
		rt.Advance(int64(t) + 1)
		d := clock()
		processed++
		if tm != nil {
			feed.decode.add(b-a, len(burst))
			feed.ingest.add(c-b, len(burst))
			feed.advance.add(d-c, 1)
		}
	}
	t2 := clock()
	results, err := rt.Finish(int64(processed))
	t3 := clock()
	if tm != nil {
		tm.decode.merge(&feed.decode)
		tm.ingest.merge(&feed.ingest)
		tm.advance.merge(&feed.advance)
		tm.begin = append(tm.begin, float64(t1-t0)/1e3)
		tm.finish = append(tm.finish, float64(t3-t2)/1e3)
		if log != nil {
			id := log.id()
			log.record(log.id(), id, "begin", t0, t1, nil)
			log.record(log.id(), id, "feed", t1, t2, map[string]any{
				"decode_ns": feed.decode.busy, "ingest_ns": feed.ingest.busy, "advance_ns": feed.advance.busy, "slots": processed,
			})
			log.record(log.id(), id, "finish", t2, t3, nil)
			log.record(id, 0, "stream", t0, t3, map[string]any{"shards": rt.Shards()})
		}
	}
	if streamErr != nil {
		return results, streamErr
	}
	return results, err
}

// diffResults compares a runtime's per-shard results with an oracle's.
func diffResults(got, want []shard.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d shard results, want %d", len(got), len(want))
	}
	for i, w := range want {
		if diff := shard.DiffResult(got[i], w.Stats, w.Ports, w.Counts); diff != "" {
			return fmt.Errorf("oracle differential: %s", diff)
		}
	}
	return nil
}

// drive holds what driveLayers measured.
type drive struct {
	packets                 int64
	decodeNs, decodeAllocs  float64 // per packet
	oracle                  coreTotals
	busy                    []int64 // per-shard step time
	replica                 replicaTiming
	replica1, replica2      float64 // pkts/s
	overhead                float64 // traced ÷ untraced replica wall − 1
	begin, finish           []float64
	recorderNs              float64 // per packet
	transmitted, unsharded  int64
	replayFailures, replays int
}

// driveLayers drives the daemon-side layers with a workload's streams:
//   - traffic: a decode-only StreamBinary pass, timed, allocations counted;
//   - core and opt: the per-shard replay (timed, recorder attached) and
//     an OPT proxy replay through sim.RunTrace;
//   - obs: unsharded replays of a decoded prefix with the recorder
//     attached minus detached (recorderCost);
//   - shard: the in-process replica of the daemon's stream loop at one
//     shard and at the daemon's shard count, checked against the
//     oracles, untraced and traced in turn (twice each; the minimum of
//     each counts), plus 200 short streams for the BeginStream and
//     Finish costs.
func driveLayers(ctx context.Context, cfg core.Config, factory func() core.Policy, payloads [][]byte, log *spanLog) (*drive, error) {
	d := &drive{busy: make([]int64, daemonShards)}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := nanotime()
	for _, p := range payloads {
		cur, slots, err := traffic.StreamBinary(bytes.NewReader(p))
		if err != nil {
			return nil, err
		}
		for t := 0; t < slots; t++ {
			d.packets += int64(len(cur.Next()))
		}
		if err := cur.Err(); err != nil {
			return nil, err
		}
	}
	t1 := nanotime()
	runtime.ReadMemStats(&after)
	d.decodeNs = float64(t1-t0) / float64(d.packets)
	d.decodeAllocs = float64(after.Mallocs-before.Mallocs) / float64(d.packets)

	var oracleN, oracle1 [][]shard.Result
	for _, p := range payloads {
		r, err := replayShards(cfg, daemonShards, factory, p, true, true)
		if err != nil {
			return nil, err
		}
		oracleN = append(oracleN, r.results)
		d.oracle.merge(&r.core)
		for i, b := range r.busy {
			d.busy[i] += b
			d.transmitted += r.results[i].Stats.Transmitted
		}
		one, err := replayShards(cfg, 1, factory, p, false, true)
		if err != nil {
			return nil, err
		}
		oracle1 = append(oracle1, one.results)
		d.unsharded += one.results[0].Stats.Transmitted

		optSys, err := sim.NewOptProxy(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := sim.RunTrace(newTimedSystem(optSys, func(r *replay) { d.oracle.add(r) }), bytesProvider(p), 0); err != nil {
			return nil, err
		}
	}
	prefix, err := decodePrefix(payloads, recorderSlots)
	if err != nil {
		return nil, err
	}
	if d.recorderNs, err = recorderCost(cfg, factory, prefix); err != nil {
		return nil, err
	}

	// The replicas, checked against the oracles.
	check := func(got []shard.Result, err error, want []shard.Result) {
		d.replays++
		if err == nil {
			err = diffResults(got, want)
		}
		if err != nil {
			d.replayFailures++
		}
	}
	streamAll := func(rt *shard.Runtime, want [][]shard.Result, tm *replicaTiming, lg *spanLog) (int64, error) {
		a := nanotime()
		for i, p := range payloads {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			got, err := replicaStream(rt, p, tm, lg)
			check(got, err, want[i])
		}
		return nanotime() - a, nil
	}
	rtN, err := shard.NewRuntime(cfg, daemonShards, factory, shard.Options{})
	if err != nil {
		return nil, err
	}
	rtN.Start()
	defer rtN.Stop()
	plain, traced := int64(-1), int64(-1)
	for k := 0; k < 2; k++ {
		w, err := streamAll(rtN, oracleN, nil, nil)
		if err != nil {
			return nil, err
		}
		plain = minPositive(plain, w)
		tm, lg := &replicaTiming{}, (*spanLog)(nil)
		if k == 1 {
			tm, lg = &d.replica, log
		}
		if w, err = streamAll(rtN, oracleN, tm, lg); err != nil {
			return nil, err
		}
		traced = minPositive(traced, w)
	}
	d.replica2 = float64(d.packets) / (float64(plain) / 1e9)
	d.overhead = float64(traced)/float64(plain) - 1

	rt1, err := shard.NewRuntime(cfg, 1, factory, shard.Options{})
	if err != nil {
		return nil, err
	}
	rt1.Start()
	defer rt1.Stop()
	w, err := streamAll(rt1, oracle1, nil, nil)
	if err != nil {
		return nil, err
	}
	d.replica1 = float64(d.packets) / (float64(w) / 1e9)

	// Per-stream fixed cost on 200-slot streams cut from the payloads.
	var cuts [][]byte
	for _, p := range payloads {
		c, err := cutPayload(p, shortSlots)
		if err != nil {
			return nil, err
		}
		cuts = append(cuts, c)
	}
	var fixed replicaTiming
	for i := 0; i < 200; i++ {
		if _, err := replicaStream(rtN, cuts[i%len(cuts)], &fixed, nil); err != nil {
			return nil, err
		}
	}
	d.begin, d.finish = fixed.begin, fixed.finish
	return d, nil
}

// recorderSlots bounds the decoded prefix the recorder cost is measured
// on, so the materialized trace stays near ten megabytes.
const recorderSlots = 20_000

// decodePrefix materializes up to maxSlots slots from the payloads, in
// order.
func decodePrefix(payloads [][]byte, maxSlots int) (traffic.Trace, error) {
	var tr traffic.Trace
	for _, p := range payloads {
		cur, slots, err := traffic.StreamBinary(bytes.NewReader(p))
		if err != nil {
			return nil, err
		}
		for t := 0; t < slots && len(tr) < maxSlots; t++ {
			tr = append(tr, cur.Next())
		}
		if err := cur.Err(); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// recorderCost is the obs recorder's price per packet: the best of five
// unsharded replays of tr with a recorder attached minus the best of
// five detached, alternating so drift hits both sides alike.
func recorderCost(cfg core.Config, factory func() core.Policy, tr traffic.Trace) (float64, error) {
	sw, err := core.New(cfg, factory())
	if err != nil {
		return 0, err
	}
	rec := obs.NewRecorder(cfg.Ports, 0)
	best := [2]int64{-1, -1} // detached, attached
	for k := 0; k < 10; k++ {
		on := k % 2
		sw.Reset()
		rec.Reset()
		if on == 1 {
			sw.SetRecorder(rec)
		} else {
			sw.SetRecorder(nil)
		}
		t0 := nanotime()
		if _, err := sim.RunTrace(sw, tr, 0); err != nil {
			return 0, err
		}
		best[on] = minPositive(best[on], nanotime()-t0)
	}
	var pkts int
	for _, b := range tr {
		pkts += len(b)
	}
	return float64(best[1]-best[0]) / float64(pkts), nil
}

// minPositive returns the smaller of two durations, treating a
// negative a as unset.
func minPositive(a, b int64) int64 {
	if a < 0 || b < a {
		return b
	}
	return a
}

// cutPayload re-frames the first slots slots of a payload as a stream
// of its own.
func cutPayload(payload []byte, slots int) ([]byte, error) {
	cur, n, err := traffic.StreamBinary(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	out, err := encodeStream(min(slots, n), 32, cur.Next)
	if err != nil {
		return nil, err
	}
	return out, cur.Err()
}

// publish records the traffic, shard and obs metrics of the drive.
func (d *drive) publish(o *outcome) {
	o.set("traffic.decode_ns_per_pkt", "ns", d.decodeNs)
	o.set("traffic.decode_allocs_per_pkt", "count", d.decodeAllocs)
	r := &d.replica
	o.set("shard.ingest_ns_per_pkt", "ns", r.ingest.perItem())
	o.set("shard.advance_ns_per_slot", "ns", r.advance.perItem())
	o.set("shard.producer_ns_per_pkt", "ns", float64(r.decode.busy+r.ingest.busy+r.advance.busy)/float64(d.packets))
	var maxBusy, sumBusy int64
	for _, b := range d.busy {
		maxBusy = max(maxBusy, b)
		sumBusy += b
	}
	o.set("shard.consumer_ns_per_pkt", "ns", float64(maxBusy)/float64(d.packets))
	o.set("shard.imbalance", "ratio", float64(maxBusy)*float64(len(d.busy))/float64(sumBusy))
	o.set("shard.replica_1_pkts_per_s", "1/s", d.replica1)
	o.set("shard.replica_2_pkts_per_s", "1/s", d.replica2)
	o.setQuantile("shard.begin_stream_us", "us", d.begin, 0.5)
	o.setQuantile("shard.begin_stream_us_p99", "us", d.begin, 0.99)
	o.setQuantile("shard.finish_us", "us", d.finish, 0.5)
	o.setQuantile("shard.finish_us_p99", "us", d.finish, 0.99)
	o.set("shard.transmitted_vs_unsharded", "ratio", float64(d.transmitted)/float64(d.unsharded))
	o.set("obs.recorder_ns_per_pkt", "ns", d.recorderNs)
	o.check(d.replays-d.replayFailures, nil)
	if d.replayFailures > 0 {
		o.check(d.replayFailures, fmt.Errorf("%d in-process replica streams diverged from the oracle", d.replayFailures))
	}
	o.spans.addHist("traffic.decode_ns_per_slot", &r.decode.h)
	o.spans.addHist("shard.ingest_ns_per_slot", &r.ingest.h)
	o.spans.addHist("shard.advance_ns_per_slot", &r.advance.h)
}

// publishPath records what the drive measures when it is the
// workload's own path, as on the daemon workloads: the core, opt, deque
// and bmset metrics and the tracing overhead. The sweeps take those
// from their traced panel instead.
func (d *drive) publishPath(o *outcome) {
	o.set("trace_overhead_frac", "ratio", d.overhead)
	d.oracle.publish(o)
	micro(o, d.oracle.meanDepth(), daemonPorts)
}

// microOps is the operation count of each storage micro-benchmark.
const microOps = 1 << 20

// sink keeps the micro-benchmark results observable.
var sink int64

// micro times the queue storage layers at the queue depth the workload
// produced: deque.PushBack+PopFront (the FIFO models' per-port queue)
// and bmset.Add+Remove over values 1..k (the value model's). Each is
// the best of three runs.
func micro(o *outcome, depth, k int) {
	best := func(run func()) float64 {
		var ts []float64
		for i := 0; i < 3; i++ {
			t0 := nanotime()
			run()
			ts = append(ts, float64(nanotime()-t0)/microOps)
		}
		return slices.Min(ts)
	}
	var dq deque.Deque
	for i := 0; i < depth; i++ {
		dq.PushBack(int64(i))
	}
	o.set("deque.op_ns", "ns", best(func() {
		for i := 0; i < microOps; i++ {
			dq.PushBack(int64(i))
			sink += dq.PopFront()
		}
	}))
	set := bmset.New(k)
	for i := 0; i < depth; i++ {
		set.Add(1 + i%k)
	}
	o.set("bmset.op_ns", "ns", best(func() {
		for i := 0; i < microOps; i++ {
			v := 1 + i%k
			set.Add(v)
			set.Remove(v)
		}
		sink += set.Sum()
	}))
	o.set("core.mean_queue_depth", "count", float64(depth))
}
