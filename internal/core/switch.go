package core

import (
	"fmt"

	"smbm/internal/bmset"
	"smbm/internal/deque"
	"smbm/internal/obs"
	"smbm/internal/pkt"
)

// Switch is a shared-memory switch instance driven by a Policy. Create
// with New; not safe for concurrent use (run one Switch per goroutine).
type Switch struct {
	cfg    Config
	policy Policy

	// soa is the contiguous structure-of-arrays backing for the per-port
	// hot lanes: the admission and transmission loops walk parallel
	// arrays carved out of this one allocation
	// (qLen|holRes|qWork|vMin|works|speedTab — the same six lanes for
	// every model), so a scan over all ports is cache-linear instead of
	// hopping between separately allocated slices. Models that lack a
	// heterogeneity dimension maintain the degenerate mirror instead of
	// branching per access: the processing model keeps vMin at 1 for
	// non-empty queues and vSum ≡ queue length; the value model keeps
	// qWork ≡ queue length (unit works). Every FastView accessor is
	// therefore a branch-free lane read.
	soa []int

	// works is the engine-private per-port work table (a lane of soa).
	// It is a defensive copy of the configuration: Config.PortWork stays
	// caller-owned and uncorrupted even if a buggy policy writes through
	// the PortWorks FastView slice (verify catches such writes against
	// cfgWorks).
	works []int
	// cfgWorks is the pristine per-port work reference verify() compares
	// works against; never handed out.
	cfgWorks []int

	occ  int
	slot int64

	// Model traits, fixed at construction, that drive every mutator's
	// dispatch instead of per-site model enumeration:
	//
	//   - fifo (processing, combined): FIFO queue discipline — head-of-
	//     line residuals, per-port work requirements, tail push-out, and
	//     the arrivals deques for latency accounting;
	//   - valued (value, combined): heterogeneous intrinsic values — one
	//     bounded multiset per queue backing the min/max/sum mirrors.
	//
	// The pure value model is valued-only (priority-queue discipline:
	// transmission pops the max, push-out pops the min); the combined
	// model is both (FIFO discipline over work-and-value packets).
	fifo   bool
	valued bool

	// Per-queue state. qLen is the packet count (every model). A FIFO
	// queue holding len packets with head-of-line residual hol has total
	// residual work (len-1)*w_i + hol, mirrored incrementally in qWork;
	// the value model mirrors qWork ≡ qLen (unit works). arrivals
	// records the arrival slot of each buffered packet in FIFO order for
	// latency accounting (fifo models only).
	qLen     []int
	holRes   []int
	qWork    []int
	arrivals []deque.Deque

	// Value state (valued models): one bounded multiset per queue; vMin
	// and vSum mirror the per-queue minimum (0 when empty) and value sum
	// so FastView consumers read lanes instead of querying each
	// multiset. The processing model maintains the degenerate mirrors
	// (vMin 1 when non-empty, vSum ≡ qLen), matching its per-queue
	// View semantics. vals additionally mirrors each combined-model FIFO
	// queue's per-packet values in arrival order, so the tail eviction
	// and head-of-line completion know which value leaves the multiset.
	vq   []*bmset.Set
	vMin []int
	vSum []int64
	vals []deque.Deque

	// Incrementally maintained argmax caches over the per-queue length
	// and total-work keys, and the precomputed NHST normalizer
	// Z = sum_j 1/w_j (summed in ascending port order so FastView
	// consumers match the fallback scan bit for bit).
	lenMax     argmax
	workMax    argmax
	invWorkSum float64

	// Fault-injection overrides (see SetPortSpeedup / SetBufferLimit).
	// speedOv, when non-nil, holds a per-port speedup override; a
	// negative entry means "nominal". bufLimit, when positive, caps the
	// effective shared buffer below the configured B.
	speedOv  []int
	bufLimit int

	// Precomputed effective-configuration tables: speedTab[i] is port
	// i's effective per-slot speedup and effBuf the effective shared
	// buffer, refreshed whenever an override changes (New,
	// SetPortSpeedup, ResetSpeedups, SetBufferLimit, Reset) so the
	// per-slot hot loops read a table instead of re-branching on the
	// override state per port per slot.
	speedTab []int
	effBuf   int

	stats   Stats
	perPort []PortCounters

	// Arrival phase state (see batch.go): the reusable Batch executor,
	// the policy's optional batch kernel, Arrive's one-packet burst, and
	// the epoch-stamped drop-decision memo.
	batchPol BatchPolicy
	batch    Batch
	one      [1]pkt.Packet
	// memoEpoch is monotone for the lifetime of the Switch: it only
	// ever increments (every burst start, accept and push-out advances
	// it) and survives Reset and SetPolicy untouched, so a memoStamp
	// written before either can never alias a stamp issued after — the
	// stamp table never needs clearing. Overflow is a non-concern by
	// construction: it is int64, advanced at most a few times per
	// arriving packet, so even an unbounded daemon (cmd/smbsimd)
	// stepping 10⁹ packets per second would take centuries to wrap. Do
	// not "economize" by rezeroing it on Reset; that would revive stale
	// stamps.
	memoStamp  []int64
	memoStride int
	memoEpoch  int64

	// Optional observability recorder (see SetRecorder). Every recording
	// site is branch-on-nil, so a detached switch pays one predictable
	// pointer compare per decision — the obs overhead contract.
	rec *obs.Recorder
}

// reserveCap bounds the per-queue deque pre-reservation: queues are
// pre-sized to min(B, reserveCap) so steady-state pushes never allocate
// without letting a huge configured buffer pin memory across all ports.
const reserveCap = 4096

// New builds a switch from cfg driven by policy.
func New(cfg Config, policy Policy) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("%w: nil policy", ErrBadConfig)
	}
	n := cfg.Ports
	s := &Switch{
		cfg:     cfg,
		policy:  policy,
		perPort: make([]PortCounters, n),
	}
	// Carve the per-port hot lanes out of one contiguous allocation
	// (full-capacity subslices, so an append on one lane can never bleed
	// into the next). The work table is an engine-private copy of the
	// configuration. The lane layout is identical for every model; the
	// traits only decide which side structures (arrival deques, value
	// multisets) exist.
	s.fifo = cfg.Model != ModelValue
	s.valued = cfg.Model != ModelProcessing
	s.soa = make([]int, 6*n)
	s.qLen = s.soa[0*n : 1*n : 1*n]
	s.holRes = s.soa[1*n : 2*n : 2*n]
	s.qWork = s.soa[2*n : 3*n : 3*n]
	s.vMin = s.soa[3*n : 4*n : 4*n]
	s.works = s.soa[4*n : 5*n : 5*n]
	s.speedTab = s.soa[5*n : 6*n : 6*n]
	s.vSum = make([]int64, n)
	reserve := min(cfg.Buffer, reserveCap)
	if s.fifo {
		s.arrivals = make([]deque.Deque, n)
		for i := range s.arrivals {
			s.arrivals[i].Reserve(reserve)
		}
	}
	if s.valued {
		s.vq = make([]*bmset.Set, n)
		for i := range s.vq {
			s.vq[i] = bmset.New(cfg.MaxLabel)
		}
	}
	if s.fifo && s.valued {
		s.vals = make([]deque.Deque, n)
		for i := range s.vals {
			s.vals[i].Reserve(reserve)
		}
	}
	s.cfgWorks = append([]int(nil), cfg.portWork()...)
	copy(s.works, s.cfgWorks)
	s.recomputeSpeedTab()
	s.recomputeEffBuf()
	// Same ascending-port summation order as the NHST fallback scan so
	// FastView thresholds are bit-identical to the plain-View path.
	for _, w := range s.works {
		s.invWorkSum += 1 / float64(w)
	}
	s.batch.s = s
	s.batchPol, _ = policy.(BatchPolicy)
	s.memoStride = cfg.MaxLabel + 1
	s.memoStamp = make([]int64, n*s.memoStride)
	return s, nil
}

// SetPolicy swaps the driving policy on an empty switch, enabling engine
// reuse across policies within a sweep cell (see sim.Run). It fails when
// packets are buffered: admission state belongs to exactly one policy.
func (s *Switch) SetPolicy(policy Policy) error {
	if policy == nil {
		return fmt.Errorf("%w: nil policy", ErrBadConfig)
	}
	if s.occ != 0 {
		return fmt.Errorf("core: SetPolicy with %d packets buffered; Reset first", s.occ)
	}
	s.policy = policy
	s.batchPol, _ = policy.(BatchPolicy)
	return nil
}

// MustNew is New that panics on error; for tests and examples with
// constant configurations.
func MustNew(cfg Config, policy Policy) *Switch {
	s, err := New(cfg, policy)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the switch configuration.
func (s *Switch) Config() Config { return s.cfg }

// Name returns the driving policy's name, identifying this system in
// experiment reports.
func (s *Switch) Name() string { return s.policy.Name() }

// Policy returns the driving policy.
func (s *Switch) Policy() Policy { return s.policy }

// Stats returns a snapshot of the accumulated counters.
func (s *Switch) Stats() Stats { return s.stats }

// PortCounters returns a copy of the per-port counters.
func (s *Switch) PortCounters() []PortCounters {
	out := make([]PortCounters, len(s.perPort))
	copy(out, s.perPort)
	return out
}

// Slot returns the current slot number (completed transmission phases).
func (s *Switch) Slot() int64 { return s.slot }

// --- Fault-injection overrides -------------------------------------------
//
// The methods below are the degradation knobs used by internal/faults:
// they transiently override the nominal configuration without touching
// Config, so a fault window can slow a port's cores, black a port out,
// or squeeze the effective shared buffer, and clearing the override
// restores nominal behaviour exactly.

// SetPortSpeedup overrides port i's per-slot processing cycles
// (processing model) or per-slot transmissions (value model). c == 0
// blacks the port out; a negative c restores the configured Speedup.
// While a port is blacked out Drain cannot terminate if that port holds
// packets — fault injectors clear overrides before draining (see
// internal/faults), and sim.RunTrace bounds drains via DrainMax.
func (s *Switch) SetPortSpeedup(i, c int) {
	if i < 0 || i >= s.cfg.Ports {
		panic(fmt.Sprintf("core: SetPortSpeedup port %d out of [0,%d)", i, s.cfg.Ports))
	}
	if s.speedOv == nil {
		if c < 0 {
			return
		}
		s.speedOv = make([]int, s.cfg.Ports)
		for j := range s.speedOv {
			s.speedOv[j] = -1
		}
	}
	s.speedOv[i] = c
	s.recomputeSpeedTab()
}

// ResetSpeedups clears all per-port speedup overrides, restoring the
// configured Speedup on every port.
func (s *Switch) ResetSpeedups() {
	for i := range s.speedOv {
		s.speedOv[i] = -1
	}
	s.recomputeSpeedTab()
}

// SetBufferLimit transiently caps the effective shared buffer at b
// packets. Policies observe the squeezed value through View.Buffer and
// View.Free, so push-out policies evict via their own rule and
// non-push-out policies tail-drop. Occupancy already above the limit is
// not force-evicted: push-out admissions stay occupancy-neutral and the
// excess drains through transmission. b <= 0 (or b >= the configured B)
// restores the nominal buffer.
func (s *Switch) SetBufferLimit(b int) {
	if b <= 0 {
		s.bufLimit = 0
	} else {
		s.bufLimit = b
	}
	s.recomputeEffBuf()
}

// SetRecorder attaches an observability recorder (nil detaches),
// implementing obs.Target. While attached, every admission decision the
// engine executes — admit, tail-drop, push-out (with the discarded
// residual work and value), head-of-line transmission — is counted per
// port and, when the recorder traces, ringed as an event. The recorder
// must be sized for this switch's port count. Reset does not detach:
// the recorder's lifecycle belongs to the caller (see sim).
func (s *Switch) SetRecorder(r *obs.Recorder) {
	if r != nil && r.Ports() != s.cfg.Ports {
		panic(fmt.Sprintf("core: SetRecorder sized for %d ports on a %d-port switch", r.Ports(), s.cfg.Ports))
	}
	s.rec = r
}

// effSpeedup returns port i's effective per-slot speedup under any
// active override, by reading the precomputed table.
func (s *Switch) effSpeedup(i int) int { return s.speedTab[i] }

// effBuffer returns the effective shared buffer under any active
// squeeze, by reading the precomputed value.
func (s *Switch) effBuffer() int { return s.effBuf }

// recomputeSpeedTab refreshes the per-port effective-speedup table
// from the configured speedup and any active overrides. Called on
// every override change (a cold path) so the per-slot loops never
// re-branch on the override state.
func (s *Switch) recomputeSpeedTab() {
	for i := range s.speedTab {
		if s.speedOv != nil && s.speedOv[i] >= 0 {
			s.speedTab[i] = s.speedOv[i]
		} else {
			s.speedTab[i] = s.cfg.Speedup
		}
	}
}

// recomputeEffBuf refreshes the cached effective buffer from the
// configured B and any active squeeze.
func (s *Switch) recomputeEffBuf() {
	if s.bufLimit > 0 && s.bufLimit < s.cfg.Buffer {
		s.effBuf = s.bufLimit
	} else {
		s.effBuf = s.cfg.Buffer
	}
}

// --- View implementation -------------------------------------------------

// Model implements View.
func (s *Switch) Model() Model { return s.cfg.Model }

// Ports implements View.
func (s *Switch) Ports() int { return s.cfg.Ports }

// Buffer implements View. It reports the effective buffer, which a
// transient SetBufferLimit squeeze may hold below the configured B.
func (s *Switch) Buffer() int { return s.effBuffer() }

// MaxLabel implements View.
func (s *Switch) MaxLabel() int { return s.cfg.MaxLabel }

// Occupancy implements View.
func (s *Switch) Occupancy() int { return s.occ }

// Free implements View. Under a buffer squeeze it never goes negative:
// occupancy above the transient limit reads as a full buffer.
func (s *Switch) Free() int {
	if free := s.effBuffer() - s.occ; free > 0 {
		return free
	}
	return 0
}

// QueueLen implements View.
func (s *Switch) QueueLen(i int) int { return s.qLen[i] }

// PortWork implements View.
func (s *Switch) PortWork(i int) int { return s.works[i] }

// QueueWork implements View. The value model's lane mirrors the queue
// length (unit works), so the read is branch-free in every model.
func (s *Switch) QueueWork(i int) int { return s.qWork[i] }

// QueueMinValue implements View. The processing model maintains the
// degenerate mirror (1 when non-empty, 0 when empty) in the same lane.
func (s *Switch) QueueMinValue(i int) int { return s.vMin[i] }

// QueueMaxValue implements View.
func (s *Switch) QueueMaxValue(i int) int {
	if !s.valued {
		if s.qLen[i] == 0 {
			return 0
		}
		return 1
	}
	if s.vq[i].Empty() {
		return 0
	}
	return s.vq[i].Max()
}

// QueueValueSum implements View. The processing model's lane mirrors
// the queue length (unit values).
func (s *Switch) QueueValueSum(i int) int64 { return s.vSum[i] }

var _ View = (*Switch)(nil)

// --- FastView implementation ---------------------------------------------

// QueueLens implements FastView. The returned slice is live engine
// state and strictly read-only: writing through it corrupts the
// switch (the fastviewro analyzer forbids such writes in the policy
// packages, and verify() under CheckInvariants detects them).
//
//smb:hotpath
func (s *Switch) QueueLens() []int { return s.qLen }

// QueueTotalWorks implements FastView. The returned slice is live
// engine state and strictly read-only (see QueueLens).
//
// In the value model the lane mirrors the per-queue packet counts:
// every value-model packet requires exactly one unit of work, so total
// residual work ≡ queue length by definition, mirroring
// View.QueueWork. Value-model policies must not reinterpret it as a
// processing-work measure — none of the roster policies do;
// TestQueueTotalWorksValueModel pins the equivalence.
//
//smb:hotpath
func (s *Switch) QueueTotalWorks() []int { return s.qWork }

// QueueMinValues implements FastView. The processing model maintains
// the degenerate mirror (1 when non-empty, 0 when empty), matching
// View.QueueMinValue. The returned slice is live engine state and
// strictly read-only (see QueueLens).
//
//smb:hotpath
func (s *Switch) QueueMinValues() []int { return s.vMin }

// QueueSums implements FastView. The processing model's lane mirrors
// the queue lengths (unit values), matching View.QueueValueSum. The
// returned slice is live engine state and strictly read-only (see
// QueueLens).
//
//smb:hotpath
func (s *Switch) QueueSums() []int64 { return s.vSum }

// PortWorks implements FastView. The returned slice is live engine
// state and strictly read-only (see QueueLens); it is the engine's
// private copy of the configured works, so a rogue write corrupts only
// this switch — never the caller-owned Config.PortWork — and verify()
// reports the divergence from the pristine configuration.
//
//smb:hotpath
func (s *Switch) PortWorks() []int { return s.works }

// PortInvWorkSum implements FastView.
//
//smb:hotpath
func (s *Switch) PortInvWorkSum() float64 { return s.invWorkSum }

// LongestQueue implements FastView.
//
//smb:hotpath
func (s *Switch) LongestQueue() (int, int) { return s.lenMax.top(s.qLen) }

// HeaviestQueue implements FastView. In the value model the work lane
// mirrors the queue lengths and the work argmax sees exactly the same
// key movements as the length argmax, so the answer coincides with
// LongestQueue bit for bit.
//
//smb:hotpath
func (s *Switch) HeaviestQueue() (int, int) { return s.workMax.top(s.qWork) }

var _ FastView = (*Switch)(nil)

// --- Simulation -----------------------------------------------------------

// Arrive offers one packet to the policy during the arrival phase and
// executes its decision: it is ArriveBatch over a one-packet burst,
// with the *BurstError unwrapped. It returns an error when the packet
// is malformed for this switch or the policy's decision violates the
// model (accepting into a full buffer, evicting from an empty queue).
// A failing packet contributes nothing — no queue mutation, no Stats
// or per-port counter movement, no obs event — except under a
// CheckInvariants verify failure, which reports engine corruption
// *after* the triggering packet was applied.
func (s *Switch) Arrive(p pkt.Packet) error {
	s.one[0] = p
	err := s.ArriveBatch(s.one[:])
	if be, ok := err.(*BurstError); ok {
		return be.Err
	}
	return err
}

// BurstError reports a failure inside a burst arrival: which packet
// failed and how many packets of the burst had been applied (and
// remain applied) when the failure surfaced.
type BurstError struct {
	// Index is the position of the failing packet within the burst.
	Index int
	// Applied counts the burst's packets whose effects remain in Stats,
	// the per-port counters and the obs recorder: 0 when up-front
	// validation rejected the burst, Index when a policy decision
	// failed (the decided prefix stays applied), and Index+1 when a
	// CheckInvariants verify failure surfaced after packet Index was
	// applied.
	Applied int
	// Err is the underlying per-packet failure.
	Err error
}

// Error implements error.
func (e *BurstError) Error() string {
	return fmt.Sprintf("core: burst packet %d (%d applied): %v", e.Index, e.Applied, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is and errors.As.
func (e *BurstError) Unwrap() error { return e.Err }

// Transmit runs one transmission phase: every non-empty queue receives
// Speedup processing cycles (processing and combined models) or
// transmits up to Speedup packets (value model). It advances the slot
// counter.
//
//smb:hotpath
func (s *Switch) Transmit() {
	switch s.cfg.Model {
	case ModelProcessing:
		s.transmitProcessing()
	case ModelValue:
		s.transmitValue()
	default:
		s.transmitCombined()
	}
	s.slot++
	s.stats.Slots++
	if s.cfg.CheckInvariants {
		//smb:alloc-ok CheckInvariants debug mode, off in measured runs
		if err := s.verify(); err != nil {
			panic(err) // unreachable unless the engine itself is broken
		}
	}
}

//smb:hotpath
func (s *Switch) transmitProcessing() {
	// Hoist the SoA lanes into locals: the inner loop then indexes flat
	// slices instead of reloading switch fields around every store, and
	// the slot's consumed cycles accumulate into one register flushed to
	// Stats once per phase.
	var (
		speedTab    = s.speedTab
		qLen        = s.qLen
		holRes      = s.holRes
		qWork       = s.qWork
		works       = s.works
		cyclesTotal int64
	)
	for i := 0; i < s.cfg.Ports; i++ {
		budget := speedTab[i]
		if budget == 0 || qLen[i] == 0 {
			continue
		}
		// Per-port accumulators: counters are batched into stats and
		// perPort once per port instead of per completion.
		var (
			cycles    int64
			completed int64
			latSum    int64
		)
		pc := &s.perPort[i]
		for budget > 0 && qLen[i] > 0 {
			use := min(budget, holRes[i])
			holRes[i] -= use
			qWork[i] -= use
			budget -= use
			cycles += int64(use)
			if holRes[i] > 0 {
				break
			}
			// Head-of-line packet completed: transmit it.
			qLen[i]--
			s.occ--
			completed++
			latency := s.slot - s.arrivals[i].PopFront()
			latSum += latency
			if latency > pc.MaxLatency {
				pc.MaxLatency = latency
			}
			if qLen[i] > 0 {
				holRes[i] = works[i]
			}
		}
		if cycles > 0 {
			// Any consumed cycle lowers the queue's total work, but its
			// length (the lenMax key) only changes on a completion.
			s.workMax.drop(i)
			cyclesTotal += cycles
		}
		if completed > 0 {
			s.lenMax.drop(i)
			// Degenerate value mirrors (unit values): the sum lane tracks
			// the queue length, the min lane drops to 0 on empty.
			s.vSum[i] -= completed
			if qLen[i] == 0 {
				s.vMin[i] = 0
			}
			s.stats.Transmitted += completed
			s.stats.TransmittedValue += completed
			s.stats.TransmittedWork += completed * int64(works[i])
			s.stats.LatencySlots += latSum
			pc.Transmitted += completed
			pc.TransmittedValue += completed
			pc.LatencySlots += latSum
			if s.rec != nil {
				s.rec.Add(i, obs.KindHOLTransmit, uint64(completed))
			}
		}
	}
	s.stats.CyclesUsed += cyclesTotal
}

//smb:hotpath
func (s *Switch) transmitValue() {
	for i := 0; i < s.cfg.Ports; i++ {
		// The speedup override cannot change mid-phase, so hoist it and
		// pop the exact count instead of re-testing per packet.
		pops := min(s.speedTab[i], s.qLen[i])
		if pops == 0 {
			continue
		}
		var sum int64
		for c := 0; c < pops; c++ {
			sum += int64(s.vq[i].PopMax())
		}
		s.qLen[i] -= pops
		s.qWork[i] -= pops
		s.vSum[i] -= sum
		if s.qLen[i] == 0 {
			s.vMin[i] = 0
		}
		s.lenMax.drop(i)
		s.workMax.drop(i)
		s.occ -= pops
		p64 := int64(pops)
		s.stats.Transmitted += p64
		s.stats.TransmittedValue += sum
		s.stats.TransmittedWork += p64
		s.stats.CyclesUsed += p64
		s.perPort[i].Transmitted += p64
		s.perPort[i].TransmittedValue += sum
		if s.rec != nil {
			s.rec.Add(i, obs.KindHOLTransmit, uint64(pops))
		}
	}
}

// transmitCombined is the combined-model transmission phase: FIFO
// head-of-line processing exactly like transmitProcessing, with each
// completion crediting the head packet's intrinsic value (tracked in
// the per-queue vals deque) instead of a unit.
//
//smb:hotpath
func (s *Switch) transmitCombined() {
	var (
		speedTab    = s.speedTab
		qLen        = s.qLen
		holRes      = s.holRes
		qWork       = s.qWork
		works       = s.works
		cyclesTotal int64
	)
	for i := 0; i < s.cfg.Ports; i++ {
		budget := speedTab[i]
		if budget == 0 || qLen[i] == 0 {
			continue
		}
		var (
			cycles    int64
			completed int64
			latSum    int64
			valSum    int64
			minHit    bool
		)
		pc := &s.perPort[i]
		for budget > 0 && qLen[i] > 0 {
			use := min(budget, holRes[i])
			holRes[i] -= use
			qWork[i] -= use
			budget -= use
			cycles += int64(use)
			if holRes[i] > 0 {
				break
			}
			// Head-of-line packet completed: transmit it, crediting its
			// value.
			qLen[i]--
			s.occ--
			completed++
			latency := s.slot - s.arrivals[i].PopFront()
			latSum += latency
			if latency > pc.MaxLatency {
				pc.MaxLatency = latency
			}
			v := int(s.vals[i].PopFront())
			s.vq[i].Remove(v)
			s.vSum[i] -= int64(v)
			valSum += int64(v)
			// s.vMin[i] is not touched inside the loop, so comparing the
			// popped value against it detects whether any completion may
			// have removed the last copy of the pre-phase minimum.
			if v == s.vMin[i] {
				minHit = true
			}
			if qLen[i] > 0 {
				holRes[i] = works[i]
			}
		}
		if qLen[i] == 0 {
			s.vMin[i] = 0
		} else if minHit {
			s.vMin[i] = s.vq[i].Min()
		}
		if cycles > 0 {
			s.workMax.drop(i)
			cyclesTotal += cycles
		}
		if completed > 0 {
			s.lenMax.drop(i)
			s.stats.Transmitted += completed
			s.stats.TransmittedValue += valSum
			s.stats.TransmittedWork += completed * int64(works[i])
			s.stats.LatencySlots += latSum
			pc.Transmitted += completed
			pc.TransmittedValue += valSum
			pc.LatencySlots += latSum
			if s.rec != nil {
				s.rec.Add(i, obs.KindHOLTransmit, uint64(completed))
			}
		}
	}
	s.stats.CyclesUsed += cyclesTotal
}

// Step runs one full time slot: the arrival phase over the given burst
// (in order, through ArriveBatch), then the transmission phase. On
// error the transmission phase does not run and the decided prefix of
// the burst stays applied (see ArriveBatch); admission decisions are
// final, so callers treat the error as fatal for the run.
//
//smb:hotpath
func (s *Switch) Step(arrivalsInOrder []pkt.Packet) error {
	if err := s.ArriveBatch(arrivalsInOrder); err != nil {
		return err
	}
	s.Transmit()
	return nil
}

// Drain runs transmission phases with no arrivals until the buffer is
// empty, returning the number of slots consumed. Total residual work is
// finite and strictly decreases, so Drain always terminates — unless a
// SetPortSpeedup(i, 0) blackout override is active on a non-empty port;
// callers that inject faults should clear overrides first or use
// DrainMax.
func (s *Switch) Drain() int {
	var slots int
	for s.occ > 0 {
		s.Transmit()
		slots++
	}
	return slots
}

// DrainMax is Drain bounded to at most max transmission phases. It
// returns the slots consumed and whether the buffer actually emptied;
// sim.RunTrace uses it to turn a non-terminating drain into an error.
func (s *Switch) DrainMax(max int) (int, bool) {
	var slots int
	for s.occ > 0 {
		if slots >= max {
			return slots, false
		}
		s.Transmit()
		slots++
	}
	return slots, true
}

// Reset empties the buffer and zeroes all statistics and fault
// overrides, keeping the configuration and policy.
func (s *Switch) Reset() {
	s.occ = 0
	s.slot = 0
	s.stats = Stats{}
	s.speedOv = nil
	s.bufLimit = 0
	for i := range s.perPort {
		s.perPort[i] = PortCounters{}
	}
	for i := range s.qLen {
		s.qLen[i] = 0
		s.holRes[i] = 0
		s.qWork[i] = 0
		s.vMin[i] = 0
		s.vSum[i] = 0
	}
	for i := range s.arrivals {
		s.arrivals[i].Clear()
	}
	for _, q := range s.vq {
		q.Clear()
	}
	for i := range s.vals {
		s.vals[i].Clear()
	}
	s.lenMax = argmax{}
	s.workMax = argmax{}
	s.recomputeSpeedTab()
	s.recomputeEffBuf()
	// Restore the work table from the pristine configuration so a Reset
	// also clears any corruption a rogue FastView-slice write left
	// behind. The memo epoch stays monotone: stale stamps can never
	// match a future burst.
	copy(s.works, s.cfgWorks)
}

// TotalWork returns the total residual work buffered across all queues.
func (s *Switch) TotalWork() int {
	var t int
	for i := 0; i < s.cfg.Ports; i++ {
		t += s.QueueWork(i)
	}
	return t
}

// canEvict validates a push-out victim without mutating anything, so
// Batch.PushOut can reject a violating decision before touching state.
//
//smb:hotpath
func (s *Switch) canEvict(victim int) error {
	if victim < 0 || victim >= s.cfg.Ports {
		//smb:alloc-ok validation failure path, never taken by well-formed input
		return fmt.Errorf("push-out victim %d out of range", victim)
	}
	if s.QueueLen(victim) == 0 {
		//smb:alloc-ok validation failure path, never taken by well-formed input
		return fmt.Errorf("push-out from empty queue %d", victim)
	}
	return nil
}

// evict removes one packet from queue victim — the FIFO tail (fifo
// models: processing and combined) or the minimum value (pure value
// model) — and returns the residual work and intrinsic value the
// eviction discarded: in the fifo models the evicted tail's remaining
// cycles (the whole remaining queue work when the tail is also the
// head-of-line packet, whose partial progress is wasted) plus, in the
// combined model, the tail's intrinsic value; in the value model the
// popped minimum. The victim must have been validated with canEvict
// first. Counter and recorder updates belong to the caller,
// Batch.PushOut.
//
//smb:hotpath
func (s *Switch) evict(victim int) (remWork, remValue int) {
	remWork, remValue = 1, 1
	if s.fifo {
		if s.qLen[victim] == 1 {
			remWork = s.qWork[victim]
		} else {
			remWork = s.works[victim]
		}
		s.qLen[victim]--
		s.arrivals[victim].PopBack()
		if s.qLen[victim] == 0 {
			// The evicted tail was also the head-of-line packet; any
			// cycles already spent on it are wasted.
			s.holRes[victim] = 0
			s.qWork[victim] = 0
		} else {
			s.qWork[victim] -= s.works[victim]
		}
		if s.valued {
			v := int(s.vals[victim].PopBack())
			remValue = v
			s.vq[victim].Remove(v)
			s.vSum[victim] -= int64(v)
			if s.qLen[victim] == 0 {
				s.vMin[victim] = 0
			} else if v == s.vMin[victim] {
				s.vMin[victim] = s.vq[victim].Min()
			}
		} else {
			s.vSum[victim]--
			if s.qLen[victim] == 0 {
				s.vMin[victim] = 0
			}
		}
	} else {
		m := s.vq[victim].PopMin()
		remValue = m
		s.qLen[victim]--
		s.qWork[victim]--
		s.vSum[victim] -= int64(m)
		if s.qLen[victim] == 0 {
			s.vMin[victim] = 0
		} else {
			s.vMin[victim] = s.vq[victim].Min()
		}
	}
	s.workMax.drop(victim)
	s.lenMax.drop(victim)
	s.occ--
	return remWork, remValue
}

// insert appends p to its destination queue.
//
//smb:hotpath
func (s *Switch) insert(p pkt.Packet) {
	i := p.Port
	s.qLen[i]++
	if s.fifo {
		s.arrivals[i].PushBack(s.slot)
		if s.qLen[i] == 1 {
			s.holRes[i] = s.works[i]
		}
		s.qWork[i] += s.works[i]
	} else {
		s.qWork[i]++
	}
	if s.valued {
		s.vq[i].Add(p.Value)
		s.vSum[i] += int64(p.Value)
		if s.qLen[i] == 1 || p.Value < s.vMin[i] {
			s.vMin[i] = p.Value
		}
		if s.vals != nil {
			s.vals[i].PushBack(int64(p.Value))
		}
	} else {
		s.vSum[i]++
		s.vMin[i] = 1
	}
	s.lenMax.bump(s.qLen, i)
	s.workMax.bump(s.qWork, i)
	s.occ++
}

// verify checks internal consistency; used when CheckInvariants is set.
// Beyond the queue mirrors and conservation laws it re-derives the
// precomputed per-port tables, so a rogue write through a FastView
// slice (PortWorks, QueueLens, ...) is detected at the next checked
// operation instead of silently skewing admissions.
func (s *Switch) verify() error {
	var sum int
	for i := 0; i < s.cfg.Ports; i++ {
		if s.works[i] != s.cfgWorks[i] {
			return fmt.Errorf("core: port %d work table %d != configured %d (write through a read-only FastView slice?)", i, s.works[i], s.cfgWorks[i])
		}
		wantSpeed := s.cfg.Speedup
		if s.speedOv != nil && s.speedOv[i] >= 0 {
			wantSpeed = s.speedOv[i]
		}
		if s.speedTab[i] != wantSpeed {
			return fmt.Errorf("core: port %d speedup table %d != effective %d", i, s.speedTab[i], wantSpeed)
		}
		l := s.QueueLen(i)
		if l < 0 {
			return fmt.Errorf("core: queue %d negative length %d", i, l)
		}
		if s.fifo {
			if l > 0 && (s.holRes[i] < 1 || s.holRes[i] > s.works[i]) {
				return fmt.Errorf("core: queue %d HOL residual %d out of [1,%d]", i, s.holRes[i], s.works[i])
			}
			if l == 0 && s.holRes[i] != 0 {
				return fmt.Errorf("core: empty queue %d has residual %d", i, s.holRes[i])
			}
			if s.arrivals[i].Len() != l {
				return fmt.Errorf("core: queue %d arrival log len %d != len %d", i, s.arrivals[i].Len(), l)
			}
			want := 0
			if l > 0 {
				want = (l-1)*s.works[i] + s.holRes[i]
			}
			if s.qWork[i] != want {
				return fmt.Errorf("core: queue %d incremental work %d != recomputed %d", i, s.qWork[i], want)
			}
		} else if s.qWork[i] != l {
			return fmt.Errorf("core: queue %d work mirror %d != len %d (unit works)", i, s.qWork[i], l)
		}
		if s.valued {
			if l != s.vq[i].Len() {
				return fmt.Errorf("core: queue %d incremental len %d != multiset %d", i, l, s.vq[i].Len())
			}
			if s.vSum[i] != s.vq[i].Sum() {
				return fmt.Errorf("core: queue %d incremental sum %d != multiset %d", i, s.vSum[i], s.vq[i].Sum())
			}
			wantMin := 0
			if !s.vq[i].Empty() {
				wantMin = s.vq[i].Min()
			}
			if s.vMin[i] != wantMin {
				return fmt.Errorf("core: queue %d incremental min %d != multiset %d", i, s.vMin[i], wantMin)
			}
			if s.vals != nil && s.vals[i].Len() != l {
				return fmt.Errorf("core: queue %d value log len %d != len %d", i, s.vals[i].Len(), l)
			}
		} else {
			if s.vSum[i] != int64(l) {
				return fmt.Errorf("core: queue %d sum mirror %d != len %d (unit values)", i, s.vSum[i], l)
			}
			wantMin := 0
			if l > 0 {
				wantMin = 1
			}
			if s.vMin[i] != wantMin {
				return fmt.Errorf("core: queue %d min mirror %d != degenerate %d", i, s.vMin[i], wantMin)
			}
		}
		sum += l
	}
	if sum != s.occ {
		return fmt.Errorf("core: occupancy %d != queue sum %d", s.occ, sum)
	}
	wantBuf := s.cfg.Buffer
	if s.bufLimit > 0 && s.bufLimit < s.cfg.Buffer {
		wantBuf = s.bufLimit
	}
	if s.effBuf != wantBuf {
		return fmt.Errorf("core: effective buffer cache %d != recomputed %d", s.effBuf, wantBuf)
	}
	if s.occ > s.cfg.Buffer {
		return fmt.Errorf("core: occupancy %d exceeds buffer %d", s.occ, s.cfg.Buffer)
	}
	resident := int64(s.occ)
	if got := s.stats.Accepted - s.stats.Transmitted - s.stats.PushedOut; got != resident {
		return fmt.Errorf("core: conservation violated: accepted-transmitted-pushed=%d, resident=%d", got, resident)
	}
	if s.stats.Arrived != s.stats.Accepted+s.stats.Dropped {
		return fmt.Errorf("core: arrived %d != accepted %d + dropped %d", s.stats.Arrived, s.stats.Accepted, s.stats.Dropped)
	}
	return nil
}
