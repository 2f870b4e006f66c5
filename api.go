package smbm

import (
	"smbm/internal/adversary"
	"smbm/internal/core"
	"smbm/internal/experiments"
	"smbm/internal/mapcheck"
	"smbm/internal/opt"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/search"
	"smbm/internal/sim"
	"smbm/internal/singleq"
	"smbm/internal/traffic"
)

// Core model types, re-exported from the engine.
type (
	// Config describes a shared-memory switch instance.
	Config = core.Config
	// Model selects the processing or the value generalization.
	Model = core.Model
	// Packet is a unit-sized packet with port, work and value labels.
	Packet = pkt.Packet
	// Policy is a buffer management (admission control) policy.
	Policy = core.Policy
	// Decision is a policy's verdict on an arriving packet.
	Decision = core.Decision
	// View is the read-only switch state available to policies.
	View = core.View
	// Switch is a shared-memory switch simulation instance.
	Switch = core.Switch
	// Stats carries a run's conservation-checkable counters.
	Stats = core.Stats
	// Trace is a materialized arrival sequence, one burst per slot. A
	// Trace is itself a Provider, so it drops into every streaming API.
	Trace = traffic.Trace
	// Source produces per-slot arrival bursts. A burst is borrowed: it
	// is valid until the next call and must not be written to.
	Source = traffic.Source
	// Provider is a re-derivable arrival stream of known length; every
	// cursor streams the same slots, so runs are bit-identical without
	// sharing state.
	Provider = traffic.Provider
	// Cursor is an open read position over a Provider's slot stream.
	Cursor = traffic.Cursor
	// MMPPConfig parameterizes the paper's on-off bursty traffic.
	MMPPConfig = traffic.MMPPConfig
	// LabelMode selects how generated packets are labeled.
	LabelMode = traffic.LabelMode
	// System is anything the harness can drive over a trace.
	System = sim.System
	// Instance is one simulation cell (config + policies + trace).
	Instance = sim.Instance
	// Result reports one policy's performance on an instance.
	Result = sim.Result
	// Construction is a lower-bound theorem's executable counterexample.
	Construction = adversary.Construction
)

// Model enum values.
const (
	// ModelProcessing is the Section III model: heterogeneous required
	// work, FIFO queues, throughput in packets.
	ModelProcessing = core.ModelProcessing
	// ModelValue is the Section IV model: heterogeneous values,
	// priority queues, throughput in total value.
	ModelValue = core.ModelValue
)

// Traffic labeling modes.
const (
	// LabelWorkByPort stamps processing-model packets with their port's
	// configured work.
	LabelWorkByPort = traffic.LabelWorkByPort
	// LabelValueUniform draws packet values uniformly from [1,k].
	LabelValueUniform = traffic.LabelValueUniform
	// LabelValueByPort sets value = port+1 (the value≡port special
	// case).
	LabelValueByPort = traffic.LabelValueByPort
)

// NewSwitch builds a switch simulator from cfg driven by p.
func NewSwitch(cfg Config, p Policy) (*Switch, error) { return core.New(cfg, p) }

// WorkPacket returns a processing-model packet with the given required
// work, destined to port.
func WorkPacket(port, work int) Packet { return pkt.NewWork(port, work) }

// ValuePacket returns a value-model packet with the given intrinsic
// value, destined to port.
func ValuePacket(port, value int) Packet { return pkt.NewValue(port, value) }

// ContiguousWorks returns the canonical configuration of k ports with
// required works 1..k.
func ContiguousWorks(k int) []int { return core.ContiguousWorks(k) }

// Processing-model policies (Section III).

// LWD returns the paper's main contribution, Longest-Work-Drop: push out
// from the queue with the most total residual work. At most
// 2-competitive (Theorem 7).
func LWD() Policy { return policy.LWD{} }

// LQD returns Longest-Queue-Drop: push out from the longest queue.
func LQD() Policy { return policy.LQD{} }

// BPD returns Biggest-Packet-Drop: push out from the queue with the
// largest processing requirement.
func BPD() Policy { return policy.BPD{} }

// BPD1 returns the BPD variant that never pushes out a queue's last
// packet.
func BPD1() Policy { return policy.BPD1{} }

// Greedy returns the non-push-out tail-drop baseline.
func Greedy() Policy { return policy.Greedy{} }

// NHST returns the harmonic static-threshold non-push-out policy.
func NHST() Policy { return policy.NHST{} }

// NEST returns the equal static-threshold non-push-out policy.
func NEST() Policy { return policy.NEST{} }

// NHDT returns the harmonic dynamic-threshold non-push-out policy.
func NHDT() Policy { return policy.NHDT{} }

// StaticThreshold returns a non-push-out policy with explicit per-port
// thresholds.
func StaticThreshold(label string, thresholds []int) Policy {
	return policy.StaticThreshold{Label: label, T: thresholds}
}

// Value-model policies (Section IV).

// MRD returns Maximal-Ratio-Drop, the paper's conjectured
// constant-competitive value-model policy: push out the cheapest packet
// of the queue maximizing |Q|/avg(Q).
func MRD() Policy { return policy.MRD{} }

// MVD returns Minimal-Value-Drop: push out the globally cheapest packet.
func MVD() Policy { return policy.MVD{} }

// MVD1 returns the MVD variant that never pushes out a queue's last
// packet.
func MVD1() Policy { return policy.MVD1{} }

// ValueLQD returns Longest-Queue-Drop for the value model: drop the
// cheapest packet of the longest queue.
func ValueLQD() Policy { return policy.VLQD{} }

// NHSTV returns the reversed harmonic static thresholds for the
// value-by-port special case.
func NHSTV() Policy { return policy.NHSTV{} }

// ProcessingPolicies returns the full processing-model roster in the
// paper's order.
func ProcessingPolicies() []Policy { return policy.ForProcessing() }

// ValuePolicies returns the value-model roster for uniform values.
func ValuePolicies() []Policy { return policy.ForValueUniform() }

// ValueByPortPolicies returns the value-model roster for the value≡port
// special case (adds NHSTV).
func ValueByPortPolicies() []Policy { return policy.ForValueByPort() }

// References.

// NewOptProxy returns the paper's OPT reference for cfg: a single
// priority queue over the whole buffer with Ports·Speedup cores.
func NewOptProxy(cfg Config) (System, error) { return sim.NewOptProxy(cfg) }

// ExactOptimum returns the true offline optimum objective of trace:
// transmitted packets in the processing model, transmitted value in the
// value model. It refuses every packet the engine
// refuses, and errors, naming the slot, once the solver's state space
// outgrows its memory budget (the trace may be long; the switch should
// be small).
func ExactOptimum(cfg Config, trace Trace) (int64, error) { return opt.Exact(cfg, trace) }

// Traffic and experiment plumbing.

// NewMMPP builds the paper's Markov-modulated Poisson traffic generator.
func NewMMPP(cfg MMPPConfig) (Source, error) { return traffic.NewMMPP(cfg) }

// RecordTrace materializes the next slots slots of src, copying each
// borrowed burst.
func RecordTrace(src Source, slots int) Trace { return traffic.Record(src, slots) }

// NewMMPPProvider wraps a seeded MMPP spec as a Provider of the given
// length: every cursor regenerates the identical stream, holding
// O(Sources) state regardless of slots.
func NewMMPPProvider(cfg MMPPConfig, slots int) (Provider, error) {
	return traffic.NewMMPPProvider(cfg, slots)
}

// OpenTraceFile returns a Provider that streams a trace file (text or
// binary format) record by record, so replaying it costs O(peak burst)
// memory regardless of the file's length.
func OpenTraceFile(path string) (Provider, error) { return traffic.OpenFile(path) }

// RunTrace drives sys over the arrival stream with periodic flushouts
// (0 = final drain only) and returns its counters. A materialized
// Trace is itself a Provider, so both shapes work.
func RunTrace(sys System, src Provider, flushEvery int) (Stats, error) {
	return sim.RunTrace(sys, src, flushEvery)
}

// CompetitiveRatio runs p and the OPT proxy on the same arrival stream
// and returns OPT's objective divided by p's.
func CompetitiveRatio(cfg Config, p Policy, src Provider, flushEvery int) (float64, error) {
	inst := Instance{Cfg: cfg, Policies: []Policy{p}, Provider: src, FlushEvery: flushEvery}
	res, err := inst.Run()
	if err != nil {
		return 0, err
	}
	return res[0].Ratio, nil
}

// Compare runs every policy and the OPT proxy on the same arrival
// stream.
func Compare(cfg Config, policies []Policy, src Provider, flushEvery int) ([]Result, error) {
	return Instance{Cfg: cfg, Policies: policies, Provider: src, FlushEvery: flushEvery}.Run()
}

// LowerBounds returns the paper's lower-bound constructions (Theorems
// 1–6, 9–11) at default parameters.
func LowerBounds() ([]Construction, error) { return adversary.All() }

// PanelIDs lists the Fig. 5 evaluation panels.
func PanelIDs() []string { return experiments.PanelIDs() }

// Parameter sweeps.
type (
	// Sweep describes a one-dimensional parameter sweep replicated over
	// seeds. Set Checkpoint to a directory for a resumable run: every
	// cell attempt is journaled there, and a re-run after a crash, kill
	// or interrupt skips the completed cells and resumes to a result
	// bit-identical to an uninterrupted run.
	Sweep = sim.Sweep
	// SweepResult is a completed — or gracefully partial — sweep.
	SweepResult = sim.SweepResult
	// SweepPoint aggregates one swept value across seeds.
	SweepPoint = sim.PointResult
	// SweepProgress is the per-cell progress notification delivered to
	// Sweep.Progress.
	SweepProgress = sim.SweepProgress
	// CellError is a failure confined to one (x, seed) sweep cell.
	CellError = sim.CellError
)

// Single-queue architecture (the paper's Fig. 1 baseline).
type (
	// SingleQueueConfig describes a single-queue switch whose cores
	// process any traffic type.
	SingleQueueConfig = singleq.Config
	// SingleQueue is a single-queue switch instance.
	SingleQueue = singleq.Switch
	// PortCounters carries per-output-port statistics of a shared-memory
	// run.
	PortCounters = core.PortCounters
)

// Single-queue processing orders.
const (
	// OrderPQ serves the smallest required work first.
	OrderPQ = singleq.OrderPQ
	// OrderFIFO serves in arrival order.
	OrderFIFO = singleq.OrderFIFO
)

// NewSingleQueue builds the single-queue architecture of Fig. 1 (top):
// every core can process any packet; the order decides starvation
// behaviour.
func NewSingleQueue(cfg SingleQueueConfig) (*SingleQueue, error) { return singleq.New(cfg) }

// Worst-case hunting (the empirical side of the open problems).
type (
	// HuntSpec parameterizes a randomized worst-case hunt against the
	// exact offline optimum.
	HuntSpec = search.Spec
	// HuntResult is the most adversarial instance a hunt certified.
	HuntResult = search.Worst
)

// Hunt runs a randomized worst-case search for the spec's policy on tiny
// exact-solvable instances.
func Hunt(spec HuntSpec) (HuntResult, error) { return search.Run(spec) }

// MappingReport summarizes a Theorem 7 proof-harness run.
type MappingReport = mapcheck.Report

// CheckTheorem7Mapping runs LWD and the given non-push-out opponent in
// lockstep on the trace while maintaining the paper's Fig. 3 mapping
// routine (repaired variant) and checking Lemma 8's invariant at every
// event. A nil error certifies the 2-competitiveness accounting on this
// instance.
func CheckTheorem7Mapping(cfg Config, opponent Policy, tr Trace) (MappingReport, error) {
	return mapcheck.Run(cfg, opponent, tr)
}

// CheckTheorem7MappingLiteral runs the mapping routine exactly as
// written in the paper; it fails on instances exercising the A3 corner
// documented in DESIGN.md.
func CheckTheorem7MappingLiteral(cfg Config, opponent Policy, tr Trace) (MappingReport, error) {
	return mapcheck.RunLiteral(cfg, opponent, tr)
}
