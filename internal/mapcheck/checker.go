package mapcheck

import (
	"fmt"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/traffic"
)

// Report summarizes a successful mapping run.
type Report struct {
	// LwdSent and OptSent are the two systems' transmission counts.
	LwdSent, OptSent int64
	// MaxCharge is the largest number of OPT transmissions charged to
	// one LWD packet (Theorem 7 promises <= 2).
	MaxCharge int
	// Events counts checked events (arrivals + transmissions).
	Events int64
}

// checker holds the lockstep simulation and the Fig. 3 mapping.
type checker struct {
	lwd, opt *side

	// a0/a1 map a live OPT packet id to its LWD image id; a0img/a1img
	// are the inverses (per mode, each LWD packet holds at most one).
	a0, a1       map[int]int
	a0img, a1img map[int]int

	lwdTransmitted map[int]bool
	charges        map[int]int

	// literal follows Fig. 3 to the letter (unconditional A0/A3); the
	// default repaired routine upgrades to A0 only when the latency
	// constraint actually holds. See the package tests for the corner
	// where the literal routine breaks.
	literal bool

	report Report
	nextID int
}

// Run executes the repaired mapping routine for LWD against the given
// non-push-out opponent on the trace (plus a final drain), returning an
// error at the first invariant violation. The configuration must be a
// unit-speedup processing model, as in the proof.
//
// "Repaired": the paper's step A3 (and the positional step A0) upgrade
// an OPT packet to a same-queue positional mapping unconditionally, and
// their latency claim fails when LWD has pushed out a partially
// processed head-of-line packet and later refilled the queue with a
// fresh one while OPT kept processing (RunLiteral demonstrates the
// corner). This routine performs the upgrade only when the latency
// constraint actually holds, keeping the packet on its valid A1 mapping
// otherwise; the A1-capacity existence claims are then re-checked
// empirically on every event.
func Run(cfg core.Config, opponent core.Policy, trace traffic.Trace) (Report, error) {
	return run(cfg, policy.LWD{}, opponent, trace, false)
}

// RunLiteral executes the mapping routine exactly as written in Fig. 3
// of the paper. It fails on instances exercising the A3 corner; the
// tests pin a minimal witness.
func RunLiteral(cfg core.Config, opponent core.Policy, trace traffic.Trace) (Report, error) {
	return run(cfg, policy.LWD{}, opponent, trace, true)
}

// run checks the mapping with alg in LWD's place: Run and RunLiteral
// pass LWD itself, and the negative-control test passes a policy the
// mapping must fail for.
func run(cfg core.Config, alg, opponent core.Policy, trace traffic.Trace, literal bool) (Report, error) {
	lwd, err := newSide(cfg, alg)
	if err != nil {
		return Report{}, err
	}
	if cfg.Model != core.ModelProcessing || cfg.Speedup != 1 {
		return Report{}, fmt.Errorf("mapcheck: the proof's model is processing with unit speedup")
	}
	opt, err := newSide(cfg, opponent)
	if err != nil {
		return Report{}, err
	}
	c := &checker{
		lwd:            lwd,
		opt:            opt,
		a0:             map[int]int{},
		a1:             map[int]int{},
		a0img:          map[int]int{},
		a1img:          map[int]int{},
		lwdTransmitted: map[int]bool{},
		charges:        map[int]int{},
		literal:        literal,
	}
	for _, burst := range trace {
		for _, p := range burst {
			if err := c.arrival(p); err != nil {
				return c.report, err
			}
		}
		if err := c.transmission(); err != nil {
			return c.report, err
		}
	}
	for c.lwd.sw.Occupancy() > 0 || c.opt.sw.Occupancy() > 0 {
		if err := c.transmission(); err != nil {
			return c.report, err
		}
	}
	if c.report.OptSent > 2*c.report.LwdSent {
		return c.report, fmt.Errorf("mapcheck: OPT sent %d > 2x LWD's %d despite a consistent mapping",
			c.report.OptSent, c.report.LwdSent)
	}
	return c.report, nil
}

// imageOf returns a live OPT packet's image and mode ("A0"/"A1").
func (c *checker) imageOf(optID int) (int, string, bool) {
	if q, ok := c.a0[optID]; ok {
		return q, "A0", true
	}
	if q, ok := c.a1[optID]; ok {
		return q, "A1", true
	}
	return 0, "", false
}

// eligible reports whether a live OPT packet's image is still buffered.
func (c *checker) eligible(optID int) bool {
	img, _, ok := c.imageOf(optID)
	return ok && !c.lwdTransmitted[img]
}

// eligibleInQueue returns queue j's eligible OPT packets in FIFO order.
func (c *checker) eligibleInQueue(j int) []int {
	var out []int
	for _, id := range c.opt.ids[j] {
		if c.eligible(id) {
			out = append(out, id)
		}
	}
	return out
}

// clearMapping removes a live OPT packet's mapping.
func (c *checker) clearMapping(optID int) {
	if q, ok := c.a0[optID]; ok {
		delete(c.a0, optID)
		delete(c.a0img, q)
	}
	if q, ok := c.a1[optID]; ok {
		delete(c.a1, optID)
		delete(c.a1img, q)
	}
}

// assignA1 maps the OPT packet to the highest-latency A1-free LWD packet
// satisfying the latency constraint (step A1 / the remap of A2).
func (c *checker) assignA1(optID int, why string) error {
	optLat := c.opt.latencyOf(optID)
	if optLat < 0 {
		return fmt.Errorf("mapcheck: %s: OPT packet %d not buffered", why, optID)
	}
	best, bestLat := -1, -1
	for j, q := range c.lwd.ids {
		for idx, id := range q {
			if _, taken := c.a1img[id]; taken {
				continue
			}
			if lat := c.lwd.latency(j, idx); lat <= optLat && lat > bestLat {
				best, bestLat = id, lat
			}
		}
	}
	if best < 0 {
		return fmt.Errorf("mapcheck: %s: no A1-free LWD packet with latency <= %d for OPT packet %d",
			why, optLat, optID)
	}
	c.a1[optID] = best
	c.a1img[best] = optID
	return nil
}

// arrival processes one packet arriving to both systems: the LWD side
// first (push-out bookkeeping A2, the A3 release), then the OPT side
// (A0/A1 mapping), then the full invariant.
func (c *checker) arrival(p pkt.Packet) error {
	port := p.Port

	// --- LWD side ---
	lp := c.nextID
	c.nextID++
	accepted, ev, err := c.lwd.arrive(p, lp)
	if err != nil {
		return err
	}
	var orphans []int
	if ev >= 0 {
		// A2: collect the evicted packet's images for remapping.
		if r, ok := c.a0img[ev]; ok {
			delete(c.a0img, ev)
			delete(c.a0, r)
			orphans = append(orphans, r)
		}
		if r, ok := c.a1img[ev]; ok {
			delete(c.a1img, ev)
			delete(c.a1, r)
			orphans = append(orphans, r)
		}
	}
	if accepted {
		// A3: the new LWD packet sits at raw position l of Q_port; if
		// OPT's queue holds an l-th eligible packet it was necessarily
		// A1-mapped (no positional counterpart existed) — upgrade it
		// to a positional A0 mapping.
		l := len(c.lwd.ids[port])
		elig := c.eligibleInQueue(port)
		if len(elig) >= l {
			o := elig[l-1]
			_, wasA0 := c.a0[o]
			if c.literal && wasA0 {
				return fmt.Errorf("mapcheck: A3: OPT packet %d at eligible position %d of queue %d already A0-mapped",
					o, l, port)
			}
			upgrade := !wasA0
			if !c.literal && upgrade {
				// Repaired A3: only upgrade when the latency constraint
				// holds for the new pair; the existing A1 mapping
				// remains valid otherwise.
				upgrade = c.opt.latencyOf(o) >= c.lwd.latencyOf(lp)
			}
			if upgrade {
				c.clearMapping(o)
				c.a0[o] = lp
				c.a0img[lp] = o
			}
		}
	}
	for _, r := range orphans {
		if err := c.assignA1(r, "A2 remap"); err != nil {
			return err
		}
	}

	// --- OPT side ---
	op := c.nextID
	c.nextID++
	accepted, ev, err = c.opt.arrive(p, op)
	if err != nil {
		return err
	}
	if ev >= 0 {
		return fmt.Errorf("mapcheck: opponent %s pushed out a packet; the proof assumes a non-push-out OPT",
			c.opt.sw.Name())
	}
	if accepted {
		// A0: p lands at eligible position l of Q_port^OPT (it counts
		// itself: it is about to be mapped, and eligibleInQueue skips
		// it only because the mapping does not exist yet); map to the
		// LWD packet at raw position l if it exists, else A1.
		l := len(c.eligibleInQueue(port)) + 1
		mapped := false
		if len(c.lwd.ids[port]) >= l {
			q := c.lwd.ids[port][l-1]
			_, taken := c.a0img[q]
			if c.literal && taken {
				return fmt.Errorf("mapcheck: A0: LWD packet %d already carries an A0 image", q)
			}
			ok := !taken
			if !c.literal && ok {
				// Repaired A0: positional mapping only when the latency
				// constraint holds, else fall through to A1.
				ok = c.opt.latency(port, len(c.opt.ids[port])-1) >= c.lwd.latency(port, l-1)
			}
			if ok {
				c.a0[op] = q
				c.a0img[q] = op
				mapped = true
			}
		}
		if !mapped {
			if err := c.assignA1(op, "A1 accept"); err != nil {
				return err
			}
		}
	}

	c.report.Events++
	return c.verify("after arrival")
}

// transmission processes one transmission phase: LWD's ports first, then
// OPT's (the proof's event order), checking T0 at each OPT completion.
func (c *checker) transmission() error {
	c.lwd.transmit(func(id int) error {
		c.lwdTransmitted[id] = true
		c.report.LwdSent++
		return nil
	})
	err := c.opt.transmit(func(id int) error {
		img, mode, ok := c.imageOf(id)
		if !ok {
			return fmt.Errorf("mapcheck: OPT transmitted unmapped packet %d", id)
		}
		if !c.lwdTransmitted[img] {
			return fmt.Errorf("mapcheck: T0 violated: OPT transmitted eligible packet %d (image %d via %s still buffered)",
				id, img, mode)
		}
		c.charges[img]++
		if c.charges[img] > 2 {
			return fmt.Errorf("mapcheck: LWD packet %d charged %d times", img, c.charges[img])
		}
		if c.charges[img] > c.report.MaxCharge {
			c.report.MaxCharge = c.charges[img]
		}
		c.clearMapping(id)
		c.report.OptSent++
		return nil
	})
	if err != nil {
		return err
	}
	c.report.Events++
	return c.verify("after transmission")
}

// verify re-checks Lemma 8's standing invariant.
func (c *checker) verify(when string) error {
	seenA0 := map[int]bool{}
	seenA1 := map[int]bool{}
	for j, q := range c.opt.ids {
		for idx, id := range q {
			img, mode, ok := c.imageOf(id)
			if !ok {
				return fmt.Errorf("mapcheck: %s: OPT packet %d (queue %d) unmapped", when, id, j)
			}
			if _, both := c.a0[id]; both {
				if _, alsoA1 := c.a1[id]; alsoA1 {
					return fmt.Errorf("mapcheck: %s: OPT packet %d mapped by both A0 and A1", when, id)
				}
			}
			if c.lwdTransmitted[img] {
				continue // ineligible: no latency constraint
			}
			lwdLat := c.lwd.latencyOf(img)
			if lwdLat < 0 {
				return fmt.Errorf("mapcheck: %s: image %d of OPT packet %d is neither buffered nor transmitted",
					when, img, id)
			}
			if optLat := c.opt.latency(j, idx); optLat < lwdLat {
				return fmt.Errorf("mapcheck: %s: latency constraint violated: OPT packet %d lat %d < image %d (%s) lat %d",
					when, id, optLat, img, mode, lwdLat)
			}
			switch mode {
			case "A0":
				if seenA0[img] {
					return fmt.Errorf("mapcheck: %s: LWD packet %d holds two A0 images", when, img)
				}
				seenA0[img] = true
			case "A1":
				if seenA1[img] {
					return fmt.Errorf("mapcheck: %s: LWD packet %d holds two A1 images", when, img)
				}
				seenA1[img] = true
			}
		}
	}
	return nil
}
