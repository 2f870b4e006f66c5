package opt

import (
	"smbm/internal/core"
	"smbm/internal/pkt"
)

// The per-arrival search below is Exact's first differential oracle:
// a memoized accept/drop branch on every arrival, one copy per queue
// discipline, sharing no code with the slot-level DP. It has no input
// check and no caps; tests keep its instances small.

// searchKey is a decision point: before arrival idx of slot, with the
// per-queue state st.
type searchKey struct {
	slot, idx int
	st        string
}

// searchProcessing returns the maximum number of packets transmitted on
// trace, including a full drain, in the processing model.
func searchProcessing(cfg core.Config, trace [][]pkt.Packet) int64 {
	works := make([]int, cfg.Ports)
	for i := range works {
		works[i] = 1
	}
	if cfg.PortWork != nil {
		copy(works, cfg.PortWork)
	}
	e := &searchProc{cfg: cfg, works: works, trace: trace, memo: make(map[searchKey]int64)}
	// State: per queue, (length, head-of-line residual).
	return e.best(0, 0, make([]byte, 2*cfg.Ports), 0)
}

type searchProc struct {
	cfg   core.Config
	works []int
	trace [][]pkt.Packet
	memo  map[searchKey]int64
}

// best returns the maximum future transmissions from the decision point
// just before arrival idx of slot.
func (e *searchProc) best(slot, idx int, st []byte, occ int) int64 {
	if slot == len(e.trace) {
		return e.drain(st)
	}
	key := searchKey{slot, idx, string(st)}
	if v, ok := e.memo[key]; ok {
		return v
	}
	var out int64
	if idx < len(e.trace[slot]) {
		p := e.trace[slot][idx]
		// Option 1: drop.
		out = e.best(slot, idx+1, st, occ)
		// Option 2: accept, if there is room.
		if occ < e.cfg.Buffer {
			st2 := append([]byte(nil), st...)
			q := p.Port
			st2[2*q]++
			if st2[2*q] == 1 {
				st2[2*q+1] = byte(e.works[q])
			}
			if got := e.best(slot, idx+1, st2, occ+1); got > out {
				out = got
			}
		}
	} else {
		st2 := append([]byte(nil), st...)
		sent := e.transmit(st2)
		out = sent + e.best(slot+1, 0, st2, occ-int(sent))
	}
	e.memo[key] = out
	return out
}

// transmit applies one transmission phase in place and returns the number
// of packets completed.
func (e *searchProc) transmit(st []byte) int64 {
	var sent int64
	for q := 0; q < e.cfg.Ports; q++ {
		budget := e.cfg.Speedup
		for budget > 0 && st[2*q] > 0 {
			hol := int(st[2*q+1])
			use := min(budget, hol)
			hol -= use
			budget -= use
			if hol > 0 {
				st[2*q+1] = byte(hol)
				break
			}
			st[2*q]--
			sent++
			if st[2*q] > 0 {
				st[2*q+1] = byte(e.works[q])
			} else {
				st[2*q+1] = 0
			}
		}
	}
	return sent
}

func (e *searchProc) drain(st []byte) int64 {
	st2 := append([]byte(nil), st...)
	var sent int64
	for {
		got := e.transmit(st2)
		sent += got
		if got == 0 {
			empty := true
			for q := 0; q < e.cfg.Ports; q++ {
				if st2[2*q] > 0 {
					empty = false
					break
				}
			}
			if empty {
				return sent
			}
		}
	}
}

// searchValue returns the maximum total value transmitted on trace,
// including a full drain, in the value model.
func searchValue(cfg core.Config, trace [][]pkt.Packet) int64 {
	e := &searchVal{cfg: cfg, trace: trace, memo: make(map[searchKey]int64)}
	// State: per queue, count of each value 1..k.
	return e.best(0, 0, make([]byte, cfg.Ports*cfg.MaxLabel), 0)
}

type searchVal struct {
	cfg   core.Config
	trace [][]pkt.Packet
	memo  map[searchKey]int64
}

func (e *searchVal) best(slot, idx int, st []byte, occ int) int64 {
	if slot == len(e.trace) {
		return e.drain(st)
	}
	key := searchKey{slot, idx, string(st)}
	if v, ok := e.memo[key]; ok {
		return v
	}
	var out int64
	if idx < len(e.trace[slot]) {
		p := e.trace[slot][idx]
		out = e.best(slot, idx+1, st, occ)
		if occ < e.cfg.Buffer {
			st2 := append([]byte(nil), st...)
			st2[p.Port*e.cfg.MaxLabel+p.Value-1]++
			if got := e.best(slot, idx+1, st2, occ+1); got > out {
				out = got
			}
		}
	} else {
		st2 := append([]byte(nil), st...)
		sent, cnt := e.transmit(st2)
		out = sent + e.best(slot+1, 0, st2, occ-cnt)
	}
	e.memo[key] = out
	return out
}

// transmit pops up to Speedup maximum values from each queue, returning
// (total value, packet count).
func (e *searchVal) transmit(st []byte) (int64, int) {
	var (
		value int64
		count int
	)
	k := e.cfg.MaxLabel
	for q := 0; q < e.cfg.Ports; q++ {
		budget := e.cfg.Speedup
		for v := k; v >= 1 && budget > 0; v-- {
			idx := q*k + v - 1
			for st[idx] > 0 && budget > 0 {
				st[idx]--
				value += int64(v)
				count++
				budget--
			}
		}
	}
	return value, count
}

func (e *searchVal) drain(st []byte) int64 {
	st2 := append([]byte(nil), st...)
	var total int64
	for {
		v, c := e.transmit(st2)
		total += v
		if c == 0 {
			return total
		}
	}
}
