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
// on ordinary machines. Within one instance run the stream is
// additionally memoized under a byte budget (MemoBytes), so
// the OPT proxy and the policy replays share one generation pass when
// the trace fits; over-budget traces keep streaming.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// DefaultDrainMax is the absolute per-drain slot ceiling, applied when
// neither the caller nor a configuration-derived bound (DrainBound)
// tightens it. Any correct System empties in at most B·MaxLabel slots,
// orders of magnitude below this cap, so hitting it indicates a
// misbehaving System rather than a slow one.
const DefaultDrainMax = 1 << 20

// drainSlack pads the configuration-derived drain bound so boundary
// effects (a head-of-line packet mid-service at the drain's start,
// fault overrides cleared one slot late) can never trip the bound on a
// correct System.
const drainSlack = 64

// DrainBound returns the drain-slot budget implied by cfg: a full
// buffer of B packets, each needing at most MaxLabel work, empties in
// at most B·MaxLabel slots even on a single unit-speed core, so the
// bound is B·MaxLabel plus slack — far tighter than DefaultDrainMax
// for realistic configurations, which turns a wedged System into a
// prompt error instead of a 2²⁰-slot spin. DefaultDrainMax remains the
// absolute ceiling for degenerate configurations (zero or huge
// products).
func DrainBound(cfg core.Config) int {
	b := cfg.Buffer * cfg.MaxLabel
	if cfg.Buffer > 0 && cfg.MaxLabel > 0 && b/cfg.Buffer != cfg.MaxLabel {
		return DefaultDrainMax // product overflowed
	}
	if b <= 0 || b > DefaultDrainMax-drainSlack {
		return DefaultDrainMax
	}
	return b + drainSlack
}

// RunOptions tunes RunTraceContext beyond the arrival stream itself.
type RunOptions struct {
	// FlushEvery drains the buffer every so many slots (0 = only the
	// final drain).
	FlushEvery int
	// DrainMax caps the slots any single drain may consume: 0 applies
	// DefaultDrainMax, a negative value disables the bound entirely
	// (only safe for Systems known to terminate). Instance runs derive
	// a tighter default from the configuration via DrainBound.
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
// DefaultDrainMax; see RunTraceContext for cancellation and custom
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
// system supports it (max 0 = DefaultDrainMax, negative = unbounded).
func drain(sys System, max int) error {
	if max < 0 {
		sys.Drain()
		return nil
	}
	if max == 0 {
		max = DefaultDrainMax
	}
	bd, ok := sys.(BoundedDrainer)
	if !ok {
		// No bounded drain available; fall back to the plain drain and
		// trust the System's own termination argument.
		sys.Drain()
		return nil
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
	// Provider supplies the arrivals. Every replay — the OPT proxy and
	// each policy — opens its own cursor, so runs are bit-identical
	// and share no mutable state; a seeded generator spec
	// (traffic.MMPPProvider) or trace file (traffic.FileProvider)
	// keeps per-replay memory independent of the slot count. A
	// materialized traffic.Trace is itself a Provider.
	Provider traffic.Provider
	// FlushEvery drains all systems every so many slots (0 = only at
	// the end).
	FlushEvery int
	// DrainMax caps the slots any single drain may consume (0 = the
	// configuration-derived DrainBound, negative = unbounded).
	DrainMax int
	// Parallelism fans the OPT proxy and the per-policy replays out
	// over a bounded worker pool (0 or 1 = sequential). Because every
	// replay opens its own cursor, results are bit-identical to the
	// sequential order either way.
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

// MemoBytes bounds the in-memory arrival cache one instance run builds
// to amortize stream generation across its replays (traffic.Memoize):
// the first replay records the stream and later replays play it back,
// which removes the dominant per-replay cost of generator regeneration
// in multi-policy cells while staying bit-identical. It covers every
// Fig. 5 panel cell at report scale; paper-scale traces (2·10⁶ slots)
// are over budget and keep the bounded-memory streaming regeneration.
const MemoBytes = 32 << 20

// provider returns the arrival stream for one run, memoized under
// MemoBytes. Called once per run so the cache spans exactly that run's
// replays (the OPT proxy plus every policy), never leaking memory
// across cells.
func (inst Instance) provider() traffic.Provider {
	return traffic.Memoize(inst.Provider, MemoBytes)
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

// Run executes the instance: the OPT proxy once, then every policy on
// the same arrival stream.
func (inst Instance) Run() ([]Result, error) {
	return inst.RunContext(context.Background())
}

// RunContext is Run with cancellation: the run aborts between slots
// once ctx is done, returning an error wrapping ctx.Err.
func (inst Instance) RunContext(ctx context.Context) ([]Result, error) {
	var sc Scratch
	return inst.RunScratch(ctx, &sc)
}

// Scratch caches the systems an instance run builds — the OPT proxy and
// one switch reused across the competing policies — keyed by the switch
// configuration. A sweep worker that replays many (x, seed) cells with
// the same Config (the common case: only the trace seed varies) then
// reuses warmed buffers instead of reallocating every queue for every
// cell. Systems are Reset before reuse, so results are identical to
// building fresh ones; a configuration change simply rebuilds. Not safe
// for concurrent use: keep one Scratch per goroutine (parallel instance
// runs build their own per-replay systems and bypass it).
type Scratch struct {
	key string
	opt System
	sw  *core.Switch
}

// fingerprint renders cfg into a cache key (Config carries a slice, so
// it is not comparable directly).
func fingerprint(cfg core.Config) string {
	return fmt.Sprintf("%v|%d|%d|%d|%d|%v|%t",
		cfg.Model, cfg.Ports, cfg.Buffer, cfg.MaxLabel, cfg.Speedup, cfg.PortWork, cfg.CheckInvariants)
}

// runOptions resolves the per-replay RunOptions for the instance,
// deriving the drain bound from the configuration when unset.
func (inst Instance) runOptions() RunOptions {
	opts := RunOptions{FlushEvery: inst.FlushEvery, DrainMax: inst.DrainMax}
	if opts.DrainMax == 0 {
		opts.DrainMax = DrainBound(inst.Cfg)
	}
	return opts
}

// RunScratch is RunContext reusing systems cached in sc across calls
// that share a configuration. A fresh Scratch reproduces RunContext
// exactly (RunContext is implemented on top of it). With Parallelism
// above one the replays fan out over their own freshly built systems
// instead, leaving sc untouched.
func (inst Instance) RunScratch(ctx context.Context, sc *Scratch) ([]Result, error) {
	if inst.Parallelism > 1 {
		return inst.runParallel(ctx)
	}
	opts := inst.runOptions()
	src := inst.provider()
	if key := fingerprint(inst.Cfg); sc.key != key {
		sc.key, sc.opt, sc.sw = key, nil, nil
	}
	if sc.opt == nil {
		optSys, err := NewOptProxy(inst.Cfg)
		if err != nil {
			return nil, err
		}
		sc.opt = optSys
	} else {
		// Reset at acquire time, not release time: a panic or error in a
		// previous cell may have left the system mid-run.
		sc.opt.Reset()
	}
	wrapped, err := inst.wrap(sc.opt)
	if err != nil {
		return nil, err
	}
	optStats, err := RunTraceContext(ctx, wrapped, src, opts)
	if err != nil {
		return nil, err
	}
	optThroughput := optStats.Throughput(inst.Cfg.Model)

	results := make([]Result, 0, len(inst.Policies))
	for _, p := range inst.Policies {
		if sc.sw == nil {
			sw, err := core.New(inst.Cfg, p)
			if err != nil {
				return nil, err
			}
			sc.sw = sw
		} else {
			sc.sw.Reset()
			if err := sc.sw.SetPolicy(p); err != nil {
				return nil, err
			}
		}
		sys, err := inst.wrap(sc.sw)
		if err != nil {
			return nil, err
		}
		rec := inst.newRecorder()
		attached := attachRecorder(sys, rec)
		stats, err := RunTraceContext(ctx, sys, src, opts)
		if attached {
			// Detach before reuse or error return: the cached switch must
			// not carry a recorder into the next cell.
			sys.(obs.Target).SetRecorder(nil)
		}
		if err != nil {
			return nil, err
		}
		throughput := stats.Throughput(inst.Cfg.Model)
		res := Result{
			Policy:        p.Name(),
			Throughput:    throughput,
			OptThroughput: optThroughput,
			Ratio:         ratio(optThroughput, throughput),
			Stats:         stats,
		}
		if attached {
			res.Obs = rec.Snapshot()
		}
		results = append(results, res)
	}
	return results, nil
}

// newRecorder builds the per-replay recorder implied by inst.Obs, or
// nil when observability is disabled.
func (inst Instance) newRecorder() *obs.Recorder {
	if inst.Obs == nil {
		return nil
	}
	return obs.NewRecorder(inst.Cfg.Ports, inst.Obs.TraceEvents)
}

// attachRecorder attaches rec to sys when both sides are capable,
// reporting whether an attachment happened so the caller can detach
// and snapshot.
func attachRecorder(sys System, rec *obs.Recorder) bool {
	if rec == nil {
		return false
	}
	t, ok := sys.(obs.Target)
	if !ok {
		return false
	}
	t.SetRecorder(rec)
	return true
}

// runParallel fans the OPT proxy and the per-policy replays out over a
// bounded worker pool. Every replay builds its own system and opens
// its own cursor over the Provider, so nothing mutable is shared and
// the results are bit-identical to the sequential path; the fan-out is
// how a paper-scale cell (long trace, full roster) uses the sweep's
// worker budget when there are fewer cells than workers.
func (inst Instance) runParallel(ctx context.Context) ([]Result, error) {
	opts := inst.runOptions()
	src := inst.provider()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Replay 0 is the OPT proxy; replay 1+i is policy i.
	n := len(inst.Policies) + 1
	stats := make([]core.Stats, n)
	snaps := make([]*obs.Snapshot, n)
	errs := make([]error, n)
	build := func(i int) (System, error) {
		if i == 0 {
			return NewOptProxy(inst.Cfg)
		}
		return core.New(inst.Cfg, inst.Policies[i-1])
	}

	sem := make(chan struct{}, inst.Parallelism)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				errs[i] = ctx.Err()
				return
			}
			sys, err := build(i)
			if err == nil {
				sys, err = inst.wrap(sys)
			}
			if err == nil {
				var rec *obs.Recorder
				if i > 0 { // the OPT proxy is not instrumented
					rec = inst.newRecorder()
				}
				attached := attachRecorder(sys, rec)
				stats[i], err = RunTraceContext(ctx, sys, src, opts)
				if attached && err == nil {
					snaps[i] = rec.Snapshot()
				}
			}
			if err != nil {
				errs[i] = err
				cancel() // stop the sibling replays promptly
			}
		}(i)
	}
	wg.Wait()

	// Deterministic error selection: a genuine failure beats the
	// cancellation noise it induced in sibling replays.
	var firstErr error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
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
