package core

// Stats accumulates conservation-checkable counters over a simulation run.
type Stats struct {
	// Arrived counts packets offered to the policy.
	Arrived int64
	// Accepted counts packets admitted to the buffer (including ones
	// later pushed out).
	Accepted int64
	// Dropped counts packets rejected on arrival.
	Dropped int64
	// PushedOut counts admitted packets later evicted by a push-out.
	PushedOut int64
	// Transmitted counts packets fully processed and sent.
	Transmitted int64
	// TransmittedValue is the total intrinsic value of transmitted
	// packets (the value model's objective).
	TransmittedValue int64
	// TransmittedWork is the total processing spent on transmitted
	// packets.
	TransmittedWork int64
	// CyclesUsed counts processing cycles consumed, including work spent
	// on packets that were later pushed out (head-of-line preemption).
	CyclesUsed int64
	// LatencySlots sums, over transmitted packets, the number of slots
	// between arrival and transmission (processing model only).
	LatencySlots int64
	// MaxOccupancy is the high-water mark of buffer occupancy.
	MaxOccupancy int
	// Slots counts completed time slots.
	Slots int64
}

// Throughput returns the model objective: transmitted packets in the
// processing model, transmitted value in the value model.
func (s Stats) Throughput(m Model) int64 {
	if m == ModelProcessing {
		return s.Transmitted
	}
	return s.TransmittedValue
}

// LossRate returns the fraction of arrived packets that were not
// transmitted, in [0,1]. Packets still buffered count as lost; call
// (*Switch).Drain first for a conservation-exact figure.
func (s Stats) LossRate() float64 {
	if s.Arrived == 0 {
		return 0
	}
	return 1 - float64(s.Transmitted)/float64(s.Arrived)
}

// MeanLatency returns the average slots a transmitted packet spent in the
// switch (processing model), or 0 when nothing was transmitted.
func (s Stats) MeanLatency() float64 {
	if s.Transmitted == 0 {
		return 0
	}
	return float64(s.LatencySlots) / float64(s.Transmitted)
}

// observeOccupancy tracks the buffer high-water mark.
func (s *Stats) observeOccupancy(occ int) {
	if occ > s.MaxOccupancy {
		s.MaxOccupancy = occ
	}
}

// PortCounters carries one output port's share of the run, the
// starvation-visibility counters motivating the paper's shared-memory
// design (a single priority queue starves expensive classes; per-port
// queues do not).
type PortCounters struct {
	// Arrived counts packets destined to this port.
	Arrived int64
	// Accepted counts admissions into this port's queue.
	Accepted int64
	// Dropped counts rejections of this port's arrivals.
	Dropped int64
	// PushedOut counts evictions from this port's queue.
	PushedOut int64
	// Transmitted counts this port's completed packets.
	Transmitted int64
	// TransmittedValue is the value delivered through this port.
	TransmittedValue int64
	// LatencySlots sums transmitted packets' buffer residence
	// (processing model only).
	LatencySlots int64
	// MaxLatency is the largest single-packet latency observed
	// (processing model only).
	MaxLatency int64
}

// MeanLatency returns the port's average transmitted-packet latency.
func (p PortCounters) MeanLatency() float64 {
	if p.Transmitted == 0 {
		return 0
	}
	return float64(p.LatencySlots) / float64(p.Transmitted)
}

// DeliveryRate returns transmitted/arrived for the port, 1 when idle.
func (p PortCounters) DeliveryRate() float64 {
	if p.Arrived == 0 {
		return 1
	}
	return float64(p.Transmitted) / float64(p.Arrived)
}
