package core

// FastView is the extension of View that Switch implements by
// maintaining per-queue aggregates incrementally instead of recomputing
// them per query. Batch kernels read it through Batch.View; the roster
// policies' Admit scans use only View methods, so custom View
// implementations need not provide it.
//
// All slice-returning methods expose live engine state: callers must
// treat the slices as read-only and must not retain them across engine
// mutations. Every method is defined in every model: lanes whose
// heterogeneity a model lacks are maintained as exact degenerate
// mirrors (unit works in the value model, unit values in the
// processing model), so policies never need a per-model nil check.
type FastView interface {
	View

	// QueueLens returns the live per-queue packet counts (all models).
	//smb:hotpath
	QueueLens() []int

	// QueueTotalWorks returns the live per-queue total residual work,
	// mirroring View.QueueWork: (|Q_i|-1)·w_i + hol_i under the FIFO
	// discipline (processing model), |Q_i| in the value model (unit
	// works).
	//smb:hotpath
	QueueTotalWorks() []int

	// QueueMinValues returns the live per-queue minimum buffered value
	// (0 for an empty queue). In the processing model every buffered
	// packet has value 1, so entries are 1 for non-empty queues.
	//smb:hotpath
	QueueMinValues() []int

	// QueueSums returns the live per-queue buffered value sums. In the
	// processing model this equals the queue length (unit values).
	//smb:hotpath
	QueueSums() []int64

	// PortWorks returns the per-port work configuration w_1..w_n (unit
	// works in the value model).
	//smb:hotpath
	PortWorks() []int

	// PortInvWorkSum returns Z = Σ_j 1/w_j, precomputed once from the
	// configuration with the same summation order as NHST's Admit scan
	// so thresholds are bit-identical.
	//smb:hotpath
	PortInvWorkSum() float64

	// LongestQueue returns the index and length of the longest queue,
	// ties resolved to the largest index (the LQD ordering). The engine
	// maintains the answer incrementally across admissions, push-outs
	// and transmissions; amortized O(1).
	//smb:hotpath
	LongestQueue() (idx, length int)

	// HeaviestQueue returns the index and total residual work of the
	// queue with the most buffered work, ties resolved to the largest
	// index (the LWD ordering). Amortized O(1); coincides with
	// LongestQueue in the value model, where works are unit.
	//smb:hotpath
	HeaviestQueue() (idx, work int)
}

// argmax is a lazily repaired argmax-with-largest-index-tie-break cache
// over a slice of per-queue keys. Increasing a key repairs the cache in
// O(1); decreasing the current argmax's key invalidates it, and the next
// query rescans. Under the simulator's workloads queries (one per
// congested arrival) outnumber invalidations (at most one per port per
// slot), so the amortized cost is far below the per-packet O(n) rescan
// it replaces.
type argmax struct {
	idx int
	ok  bool
}

// bump repairs the cache after keys[i] increased.
//
//smb:hotpath
func (a *argmax) bump(keys []int, i int) {
	if !a.ok {
		return
	}
	if keys[i] > keys[a.idx] || (keys[i] == keys[a.idx] && i >= a.idx) {
		a.idx = i
	}
}

// drop invalidates the cache after keys[i] decreased, when necessary.
//
//smb:hotpath
func (a *argmax) drop(i int) {
	if a.ok && i == a.idx {
		a.ok = false
	}
}

// top returns the argmax index and key, rescanning if invalidated. The
// rescan walks backward with a strict comparison — identical result to
// a forward walk that takes ties, but the replacement branch almost
// never fires on the tie-heavy key distributions the equalizing
// policies (LQD, LWD) produce, where a forward walk would update its
// candidate on every tied key.
//
//smb:hotpath
func (a *argmax) top(keys []int) (int, int) {
	if !a.ok {
		best := len(keys) - 1
		for j := best - 1; j >= 0; j-- {
			if keys[j] > keys[best] {
				best = j
			}
		}
		a.idx = best
		a.ok = true
	}
	return a.idx, keys[a.idx]
}
