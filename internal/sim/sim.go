// Package sim is the experiment harness: it drives switch systems over
// arrival streams with periodic flushouts, compares policies against
// the OPT proxy, and runs seeded parameter sweeps on a bounded worker
// pool to regenerate the paper's evaluation series.
//
// Arrivals flow through traffic.Provider: every replay opens its own
// cursor over a re-derivable source (a seeded generator spec, a trace
// file, or a materialized trace), so per-replay arrival memory is
// independent of the trace length for generator- and file-backed
// providers — the property that makes the paper's 2·10⁶-slot runs fit
// on ordinary machines. An instance run records its stream once,
// before any replay starts, when the recording fits a byte budget
// (MemoBytes): the OPT proxy and the policy replays then read that one
// traffic.Trace; over budget, every replay streams its own cursor.
//
// Instance.RunContext is the one replay runner: every replay of a cell
// runs on a freshly built system on one of the instance's worker
// goroutines (Parallelism, at least one), and no system is reused
// across replays or cells. A panic in a replay is recovered on the
// worker that raised it, so a sweep confines it to its cell as a
// *CellError carrying the panicking goroutine's stack at any
// parallelism.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"

	"smbm/internal/core"
	"smbm/internal/obs"
	"smbm/internal/opt"
	"smbm/internal/pkt"
	"smbm/internal/traffic"
)

// System is anything that can simulate a slotted run: a core.Switch
// driven by a policy, or one of the OPT proxies.
type System interface {
	// Name identifies the system in reports.
	Name() string
	// Step runs one slot: the given arrivals, then one transmission
	// phase.
	Step(arrivals []pkt.Packet) error
	// Drain transmits without arrivals until empty and returns the
	// number of slots consumed.
	Drain() int
	// Stats snapshots the accumulated counters.
	Stats() core.Stats
	// Reset restores the initial empty state.
	Reset()
}

// BoundedDrainer is optionally implemented by Systems whose drain can
// be capped: DrainMax transmits without arrivals for at most max slots
// and reports whether the buffer actually emptied. RunTrace uses it to
// turn a System that never drains (a simulation bug, or a blackout
// fault left active) into an error instead of an infinite loop.
type BoundedDrainer interface {
	// DrainMax drains for at most max slots, returning the slots used
	// and whether the system emptied.
	DrainMax(max int) (int, bool)
}

var (
	_ System = (*core.Switch)(nil)
	_ System = (*opt.SPQ)(nil)

	_ BoundedDrainer = (*core.Switch)(nil)
	_ BoundedDrainer = (*opt.SPQ)(nil)
)

// DrainBound returns the drain-slot budget implied by cfg
// (core.Config.DrainBound): B·MaxLabel plus slack, under the absolute
// ceiling core.DrainCeiling.
func DrainBound(cfg core.Config) int { return cfg.DrainBound() }

// RunOptions tunes RunTraceContext beyond the arrival stream itself.
type RunOptions struct {
	// FlushEvery drains the buffer every so many slots (0 = only the
	// final drain).
	FlushEvery int
	// DrainMax caps the slots any single drain may consume (below 1 =
	// core.DrainCeiling). Instance runs derive a tighter bound from the
	// configuration via DrainBound.
	DrainMax int
}

// checkEvery is RunTraceContext's slot interval between
// context-cancellation and cursor-failure checks.
const checkEvery = 64

// RunTrace drives sys over the arrival stream, draining the buffer
// every flushEvery slots (0 disables periodic flushouts) and once more
// at the end, so buffered inventory never biases throughput
// comparisons. A materialized traffic.Trace is itself a Provider, so
// existing call sites pass traces unchanged. Drains are bounded by
// core.DrainCeiling; see RunTraceContext for cancellation and custom
// bounds.
func RunTrace(sys System, src traffic.Provider, flushEvery int) (core.Stats, error) {
	return RunTraceContext(context.Background(), sys, src, RunOptions{FlushEvery: flushEvery})
}

// RunTraceContext is RunTrace with cancellation and configurable drain
// bounds: it opens one cursor over src and pulls slots from it, aborts
// between slots once ctx is done (returning ctx.Err wrapped with the
// system and slot), propagates cursor stream failures, and errors out
// if any drain exceeds the (defaulted) DrainMax cap instead of looping
// forever on a System that never empties.
func RunTraceContext(ctx context.Context, sys System, src traffic.Provider, o RunOptions) (core.Stats, error) {
	cur, err := src.Open()
	if err != nil {
		return core.Stats{}, fmt.Errorf("sim: %s: opening arrivals: %w", sys.Name(), err)
	}
	defer cur.Close()
	slots := src.Slots()
	for t := 0; t < slots; t++ {
		if t%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return core.Stats{}, fmt.Errorf("sim: %s at slot %d: %w", sys.Name(), t, err)
			}
			if err := cur.Err(); err != nil {
				return core.Stats{}, fmt.Errorf("sim: %s at slot %d: arrivals: %w", sys.Name(), t, err)
			}
		}
		if err := sys.Step(cur.Next()); err != nil {
			return core.Stats{}, fmt.Errorf("sim: %s at slot %d: %w", sys.Name(), t, err)
		}
		if o.FlushEvery > 0 && (t+1)%o.FlushEvery == 0 {
			if err := drain(sys, o.DrainMax); err != nil {
				return core.Stats{}, fmt.Errorf("sim: %s at slot %d: %w", sys.Name(), t, err)
			}
		}
	}
	if err := cur.Err(); err != nil {
		return core.Stats{}, fmt.Errorf("sim: %s: arrivals: %w", sys.Name(), err)
	}
	if err := drain(sys, o.DrainMax); err != nil {
		return core.Stats{}, fmt.Errorf("sim: %s: %w", sys.Name(), err)
	}
	return sys.Stats(), nil
}

// drain empties sys, bounding the drain via BoundedDrainer when the
// system supports it (max below 1 = core.DrainCeiling).
func drain(sys System, max int) error {
	bd, ok := sys.(BoundedDrainer)
	if !ok {
		// No bounded drain available; fall back to the plain drain and
		// trust the System's own termination argument.
		sys.Drain()
		return nil
	}
	if max < 1 {
		max = core.DrainCeiling
	}
	slots, drained := bd.DrainMax(max)
	if !drained {
		return fmt.Errorf("drain did not empty the buffer within %d slots (misbehaving System?)", slots)
	}
	return nil
}

// NewOptProxy builds the paper's OPT proxy matching the configuration's
// model: a single priority queue with Ports·Speedup cores.
func NewOptProxy(cfg core.Config) (System, error) {
	return opt.NewSPQ(cfg)
}

// Instance is one simulation cell: a switch configuration, the competing
// policies, and the arrival stream they all replay.
type Instance struct {
	// Cfg is the shared switch configuration.
	Cfg core.Config
	// Policies compete on the arrival stream.
	Policies []core.Policy
	// Provider supplies the arrivals and must be set. A run records
	// the stream once when it fits MemoBytes, and every replay — the
	// OPT proxy and each policy — opens its own cursor of the
	// recording, so runs are bit-identical and share no mutable state.
	// Over budget, every replay opens its own cursor of Provider: a
	// seeded generator spec (traffic.MMPPProvider) or trace file
	// (traffic.FileProvider) then keeps per-replay memory independent
	// of the slot count. A materialized traffic.Trace is itself a
	// Provider, and replays read it as it is.
	Provider traffic.Provider
	// FlushEvery drains all systems every so many slots (0 = only at
	// the end). Every drain is bounded by DrainBound(Cfg).
	FlushEvery int
	// Parallelism is the number of workers the OPT proxy and the
	// per-policy replays fan out over (0 or 1 = one replay at a time,
	// in order). Because every replay builds its own system and opens
	// its own cursor, results are bit-identical at any width.
	Parallelism int
	// Wrap, when non-nil, wraps every system — the OPT proxy and each
	// policy switch — before it runs, e.g. with a fault injector
	// (internal/faults). The wrapper must be deterministic so every
	// system sees the same degradations.
	Wrap func(System) (System, error)
	// Obs, when non-nil, attaches a fresh obs.Recorder to every policy
	// replay (recorders attach through obs.Target, so fault-injector
	// wrappers are instrumented too) and snapshots it into Result.Obs.
	// Obs.TraceEvents > 0 additionally rings the last that many decision
	// events per replay. The OPT proxies are not instrumented. A nil Obs
	// keeps the engine in its zero-overhead detached state.
	Obs *obs.Options
}

// MemoBytes bounds the arrival trace one instance run records before
// its replays fan out: a stream that fits is generated once and every
// replay reads the recording, which removes the dominant per-replay
// cost of generator regeneration in multi-policy cells while staying
// bit-identical. It covers every Fig. 5 panel cell at report scale;
// paper-scale traces (2·10⁶ slots) are over budget and every replay
// streams its own cursor in bounded memory.
const MemoBytes = 32 << 20

// packetBytes is the memory charged per recorded packet, and slotBytes
// the fixed charge per recorded slot (its slice header), when a
// recording is accounted against MemoBytes. The figures are the
// in-memory sizes on 64-bit platforms; exactness does not matter, only
// that the budget scales with the materialized trace.
const (
	packetBytes = 24
	slotBytes   = 24
)

// recordArrivals returns the arrival stream an instance run's replays
// read: a traffic.Trace recorded from one cursor over src when it fits
// within MemoBytes, and src itself when src is already a Trace, when
// Slots alone is over budget (src is then never opened) or when the
// packets overrun the budget mid-stream. Each burst is copied as
// traffic.Record does, since a cursor may reuse its storage. The
// recording checks ctx and the cursor's Err every checkEvery slots, a
// stream failure comes back wrapped, and a panic is recovered as a
// replay's is.
func recordArrivals(ctx context.Context, src traffic.Provider) (rec traffic.Provider, err error) {
	defer recoverPanic("recording arrivals", &err)
	if tr, ok := src.(traffic.Trace); ok {
		return tr, nil
	}
	slots := src.Slots()
	left := MemoBytes - slotBytes*slots
	if left < 0 {
		return src, nil
	}
	cur, err := src.Open()
	if err != nil {
		return nil, fmt.Errorf("sim: recording arrivals: %w", err)
	}
	defer func() {
		if cerr := cur.Close(); cerr != nil && err == nil {
			rec, err = nil, fmt.Errorf("sim: recording arrivals: %w", cerr)
		}
	}()
	tr := make(traffic.Trace, slots)
	for t := range tr {
		if t%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: recording arrivals at slot %d: %w", t, err)
			}
			if err := cur.Err(); err != nil {
				return nil, fmt.Errorf("sim: recording arrivals at slot %d: %w", t, err)
			}
		}
		burst := cur.Next()
		if left -= packetBytes * len(burst); left < 0 {
			return src, nil // over budget: every replay streams
		}
		if len(burst) > 0 {
			tr[t] = append([]pkt.Packet(nil), burst...)
		}
	}
	if err := cur.Err(); err != nil {
		return nil, fmt.Errorf("sim: recording arrivals: %w", err)
	}
	return tr, nil
}

// Result reports one policy's performance on an instance.
type Result struct {
	// Policy is the policy name.
	Policy string
	// Throughput is the model objective achieved by the policy.
	Throughput int64
	// OptThroughput is the OPT proxy's objective on the same trace.
	OptThroughput int64
	// Ratio is OptThroughput/Throughput, the empirical competitive
	// ratio (+Inf when the policy transmitted nothing but OPT did).
	Ratio float64
	// Stats carries the policy run's full counters.
	Stats core.Stats
	// Obs carries the replay's decision counters (and traced events when
	// tracing was enabled); nil unless Instance.Obs was set.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// Run executes the instance: the OPT proxy and every policy replay the
// same arrival stream.
func (inst Instance) Run() ([]Result, error) {
	return inst.RunContext(context.Background())
}

// RunContext is Run with cancellation: the run aborts between slots
// once ctx is done, returning an error wrapping ctx.Err.
//
// It is the harness's one replay runner. After validating Cfg and
// Provider it records the stream once (recordArrivals, under
// MemoBytes). Then max(1, min(Parallelism, replays)) workers pull
// replay indices in order — 0 is the OPT proxy, 1+i is policy i — and
// each replay builds, wraps and runs a fresh system over its own cursor
// of the recording (of Provider, when over budget), so replays share no
// mutable state and the index-addressed results are bit-identical at
// every width. A replay's panic is recovered on its own worker into an
// error that carries that goroutine's stack (a sweep cell reports it as
// a *CellError with Stack), and the first failure cancels the replays
// still running.
func (inst Instance) RunContext(ctx context.Context) ([]Result, error) {
	if err := inst.Cfg.Validate(); err != nil {
		return nil, err
	}
	if inst.Provider == nil {
		return nil, errors.New("sim: Instance.Provider is nil")
	}
	src, err := recordArrivals(ctx, inst.Provider)
	if err != nil {
		return nil, err
	}
	opts := inst.runOptions()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(inst.Policies) + 1
	stats := make([]core.Stats, n)
	snaps := make([]*obs.Snapshot, n)
	errs := make([]error, n)
	replays := make(chan int, n)
	for i := range n {
		replays <- i
	}
	close(replays)
	var wg sync.WaitGroup
	for w := min(max(inst.Parallelism, 1), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range replays {
				stats[i], snaps[i], errs[i] = inst.replay(ctx, i, src, opts)
				if errs[i] != nil {
					cancel() // stop the sibling replays promptly
				}
			}
		}()
	}
	wg.Wait()

	// Deterministic error selection: a genuine failure beats the
	// cancellation noise it induced in sibling replays.
	var firstErr error
	for _, err := range errs {
		if err != nil && (firstErr == nil ||
			errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	optThroughput := stats[0].Throughput(inst.Cfg.Model)
	results := make([]Result, 0, len(inst.Policies))
	for i, p := range inst.Policies {
		st := stats[i+1]
		throughput := st.Throughput(inst.Cfg.Model)
		results = append(results, Result{
			Policy:        p.Name(),
			Throughput:    throughput,
			OptThroughput: optThroughput,
			Ratio:         ratio(optThroughput, throughput),
			Stats:         st,
			Obs:           snaps[i+1],
		})
	}
	return results, nil
}

// runOptions resolves the per-replay RunOptions for the instance: its
// flush interval and the configuration-derived drain bound.
func (inst Instance) runOptions() RunOptions {
	return RunOptions{FlushEvery: inst.FlushEvery, DrainMax: DrainBound(inst.Cfg)}
}

// replayPanic is a panic recovered from one replay, with the stack of
// the goroutine that raised it.
type replayPanic struct {
	replay string
	value  any
	stack  []byte
}

// Error implements error, naming the replay that panicked.
func (p *replayPanic) Error() string {
	return fmt.Sprintf("sim: %s: panic: %v", p.replay, p.value)
}

// recoverPanic, deferred, recovers a panic raised by the named replay
// (or the recording before it) into a *replayPanic in *err.
func recoverPanic(name string, err *error) {
	if r := recover(); r != nil {
		*err = &replayPanic{replay: name, value: r, stack: debug.Stack()}
	}
}

// replay runs replay i (0 = the OPT proxy, 1+i = policy i) on a freshly
// built system, attaching a recorder to policy replays when inst.Obs is
// set, and recovers a panic into a *replayPanic.
func (inst Instance) replay(ctx context.Context, i int, src traffic.Provider, opts RunOptions) (st core.Stats, snap *obs.Snapshot, err error) {
	name := "OPT proxy"
	if i > 0 {
		name = inst.Policies[i-1].Name()
	}
	defer recoverPanic(name, &err)
	if err := ctx.Err(); err != nil {
		return core.Stats{}, nil, err
	}
	var sys System
	if i == 0 {
		sys, err = NewOptProxy(inst.Cfg)
	} else {
		sys, err = core.New(inst.Cfg, inst.Policies[i-1])
	}
	if err == nil {
		sys, err = inst.wrap(sys)
	}
	if err != nil {
		return core.Stats{}, nil, err
	}
	var rec *obs.Recorder
	if t, ok := sys.(obs.Target); ok && i > 0 && inst.Obs != nil { // the OPT proxy is not instrumented
		rec = obs.NewRecorder(inst.Cfg.Ports, inst.Obs.TraceEvents)
		t.SetRecorder(rec)
	}
	if st, err = RunTraceContext(ctx, sys, src, opts); err != nil {
		return core.Stats{}, nil, err
	}
	if rec != nil {
		snap = rec.Snapshot()
	}
	return st, snap, nil
}

// wrap applies the instance's Wrap hook when set.
func (inst Instance) wrap(sys System) (System, error) {
	if inst.Wrap == nil {
		return sys, nil
	}
	wrapped, err := inst.Wrap(sys)
	if err != nil {
		return nil, fmt.Errorf("sim: wrapping %s: %w", sys.Name(), err)
	}
	return wrapped, nil
}

// ratio returns o/a with the conventions of competitive analysis: 1 when
// both are zero (the policy kept pace), +Inf when only the policy is
// zero.
func ratio(o, a int64) float64 {
	switch {
	case a > 0:
		return float64(o) / float64(a)
	case o == 0:
		return 1
	default:
		return math.Inf(1)
	}
}
