// Package sim is the experiment harness: it drives switch systems over
// arrival streams with periodic flushouts, compares policies against
// the OPT proxy, and runs seeded parameter sweeps on a bounded worker
// pool to regenerate the paper's evaluation series.
//
// Arrivals flow through traffic.Provider. Every run opens one cursor
// over a re-derivable source (a seeded generator spec, a trace file, or
// a materialized trace), copies the next window of slots into one
// reused buffer, and steps each of its systems — the OPT proxy and
// every policy replay — through that window before it generates the
// next. The stream is generated once per run, and arrival memory is
// O(window) at any trace length: the property that makes the paper's
// 2·10⁶-slot runs fit on ordinary machines.
//
// Instance.RunContext is the one replay runner: every replay of a cell
// runs on a freshly built system, a window's replays fan out over the
// instance's worker goroutines (Parallelism, at least one), and no
// system is reused across replays or cells. A panic in a replay is
// recovered on the worker that raised it, so a sweep confines it to
// its cell as a *CellError carrying the panicking goroutine's stack at
// any parallelism.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"

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

// checkEvery is the slot interval between context-cancellation and
// cursor-failure checks while a run copies its arrivals.
const checkEvery = 64

// window is the number of slots a run copies from its cursor before it
// steps its systems through them: a multiple of checkEvery, sized by
// measurement (DESIGN.md §Lockstep windows).
const window = 256

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
// bounds, and the one-system case of an instance run's lockstep loop:
// it opens one cursor over src, aborts between slots once ctx is done
// (returning ctx.Err wrapped with the system and slot), propagates
// cursor stream failures, errors out if any drain exceeds the
// (defaulted) DrainMax cap instead of looping forever on a System that
// never empties, and returns a panic in sys as an error.
func RunTraceContext(ctx context.Context, sys System, src traffic.Provider, o RunOptions) (core.Stats, error) {
	l := &lane{name: sys.Name(), sys: sys}
	if err := lockstep(ctx, sys.Name(), []*lane{l}, src, o, 1); err != nil {
		return core.Stats{}, err
	}
	return l.stats, nil
}

// lane is one system of a lockstep run: its first failure, and its
// counters once it has drained.
type lane struct {
	name  string
	sys   System
	rec   *obs.Recorder // attached decision recorder, or nil
	err   error
	stats core.Stats
}

// advance steps the lane through the window's slots, which start at
// absolute slot base, draining after every slot that closes a flush
// interval. It stops at the lane's first failure, and recovers a panic
// into one.
func (l *lane) advance(base int, bursts []pkt.Packet, ends []int, o RunOptions) {
	defer recoverPanic(l.name, &l.err)
	from := 0
	for j, end := range ends {
		t := base + j
		if err := l.sys.Step(bursts[from:end:end]); err != nil {
			l.err = fmt.Errorf("sim: %s at slot %d: %w", l.name, t, err)
			return
		}
		from = end
		if o.FlushEvery > 0 && (t+1)%o.FlushEvery == 0 {
			if err := drain(l.sys, o.DrainMax); err != nil {
				l.err = fmt.Errorf("sim: %s at slot %d: %w", l.name, t, err)
				return
			}
		}
	}
}

// finish drains the lane once more and snapshots its counters.
func (l *lane) finish(o RunOptions) {
	defer recoverPanic(l.name, &l.err)
	if err := drain(l.sys, o.DrainMax); err != nil {
		l.err = fmt.Errorf("sim: %s: %w", l.name, err)
		return
	}
	l.stats = l.sys.Stats()
}

// lockstep is the harness's one slot loop. It opens one cursor over
// src and copies the next window slots into one reused flat buffer,
// then steps every lane through them, before it copies the next
// window; at the end every lane drains and snapshots its counters.
// With workers above 1 the lanes of each window (and of the final
// drain) fan out over that many goroutines, which all finish before
// the next window is copied, so lanes share nothing but the read-only
// window and results are bit-identical at any width. Arrival memory is
// O(window) at any stream length, and the stream is generated once.
//
// The copy checks ctx and the cursor's Err every checkEvery slots
// (errors name the run by label), and recovers a panic in the cursor.
// After a window in which any lane failed, the run stops and returns
// the failure of the first such lane in order.
func lockstep(ctx context.Context, label string, lanes []*lane, src traffic.Provider, o RunOptions, workers int) (err error) {
	defer recoverPanic("arrivals", &err)
	cur, err := src.Open()
	if err != nil {
		return fmt.Errorf("sim: %s: opening arrivals: %w", label, err)
	}
	defer func() {
		if cerr := cur.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("sim: %s: closing arrivals: %w", label, cerr)
		}
	}()
	var (
		bursts []pkt.Packet // the window's slots, back to back
		ends   = make([]int, 0, window)
	)
	slots := src.Slots()
	for base := 0; base < slots; base += window {
		bursts, ends = bursts[:0], ends[:0]
		for t := base; t < min(base+window, slots); t++ {
			if t%checkEvery == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("sim: %s at slot %d: %w", label, t, err)
				}
				if err := cur.Err(); err != nil {
					return fmt.Errorf("sim: %s at slot %d: arrivals: %w", label, t, err)
				}
			}
			bursts = append(bursts, cur.Next()...)
			ends = append(ends, len(bursts))
		}
		if err := fanOut(lanes, workers, func(l *lane) { l.advance(base, bursts, ends, o) }); err != nil {
			return err
		}
	}
	if err := cur.Err(); err != nil {
		return fmt.Errorf("sim: %s: arrivals: %w", label, err)
	}
	return fanOut(lanes, workers, func(l *lane) { l.finish(o) })
}

// fanOut runs step on every lane, over up to workers goroutines that
// pull lanes in order, and returns once every lane is done — the
// barrier between windows — with the first lane failure in order.
func fanOut(lanes []*lane, workers int, step func(*lane)) error {
	if workers <= 1 {
		for _, l := range lanes {
			step(l)
		}
	} else {
		var next atomic.Int64
		pull := func() {
			for i := next.Add(1) - 1; i < int64(len(lanes)); i = next.Add(1) - 1 {
				step(lanes[i])
			}
		}
		var wg sync.WaitGroup
		for range workers - 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pull()
			}()
		}
		pull()
		wg.Wait()
	}
	for _, l := range lanes {
		if l.err != nil {
			return l.err
		}
	}
	return nil
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
	// Provider supplies the arrivals and must be set. A run opens it
	// once and steps every replay — the OPT proxy and each policy —
	// through the same windows of its stream, so runs are bit-identical
	// and arrival memory is independent of the slot count.
	Provider traffic.Provider
	// FlushEvery drains all systems every so many slots (0 = only at
	// the end). Every drain is bounded by DrainBound(Cfg).
	FlushEvery int
	// Parallelism is the number of workers each window's replays fan
	// out over (0 or 1 = one replay at a time, in order). Replays share
	// only the read-only window, so results are bit-identical at any
	// width.
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
// Provider it builds and wraps a fresh system per replay — 0 is the
// OPT proxy, 1+i is policy i — and drives them all in lockstep over one
// cursor of Provider: each window of slots is generated once and every
// system steps through it, fanned out over max(1, min(Parallelism,
// replays)) workers, before the next window is generated. Systems share
// no mutable state and results are index-addressed, so they are
// bit-identical at every width. A replay's panic is recovered on the
// worker that raised it into an error that carries that goroutine's
// stack (a sweep cell reports it as a *CellError with Stack), and the
// first failure stops every replay at the end of its window.
func (inst Instance) RunContext(ctx context.Context) ([]Result, error) {
	if err := inst.Cfg.Validate(); err != nil {
		return nil, err
	}
	if inst.Provider == nil {
		return nil, errors.New("sim: Instance.Provider is nil")
	}
	lanes := make([]*lane, len(inst.Policies)+1)
	for i := range lanes {
		l, err := inst.lane(i)
		if err != nil {
			return nil, err
		}
		lanes[i] = l
	}
	workers := min(max(inst.Parallelism, 1), len(lanes))
	if err := lockstep(ctx, "instance", lanes, inst.Provider, inst.runOptions(), workers); err != nil {
		return nil, err
	}

	optThroughput := lanes[0].stats.Throughput(inst.Cfg.Model)
	results := make([]Result, 0, len(inst.Policies))
	for i, p := range inst.Policies {
		l := lanes[i+1]
		throughput := l.stats.Throughput(inst.Cfg.Model)
		r := Result{
			Policy:        p.Name(),
			Throughput:    throughput,
			OptThroughput: optThroughput,
			Ratio:         ratio(optThroughput, throughput),
			Stats:         l.stats,
		}
		if l.rec != nil {
			r.Obs = l.rec.Snapshot()
		}
		results = append(results, r)
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
// (or by the arrival cursor) into a *replayPanic in *err.
func recoverPanic(name string, err *error) {
	if r := recover(); r != nil {
		*err = &replayPanic{replay: name, value: r, stack: debug.Stack()}
	}
}

// lane builds replay i (0 = the OPT proxy, 1+i = policy i) on a fresh
// system, attaching a recorder to policy replays when inst.Obs is set,
// and recovers a panic into a *replayPanic.
func (inst Instance) lane(i int) (l *lane, err error) {
	name := "OPT proxy"
	if i > 0 {
		name = inst.Policies[i-1].Name()
	}
	defer recoverPanic(name, &err)
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
		return nil, err
	}
	l = &lane{name: name, sys: sys}
	if t, ok := sys.(obs.Target); ok && i > 0 && inst.Obs != nil { // the OPT proxy is not instrumented
		l.rec = obs.NewRecorder(inst.Cfg.Ports, inst.Obs.TraceEvents)
		t.SetRecorder(l.rec)
	}
	return l, nil
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
