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
}
