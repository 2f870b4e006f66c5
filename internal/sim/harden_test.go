package sim

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/traffic"
)

// stuckSystem is a deliberately misbehaving System whose buffer never
// empties: DrainMax always reports failure while packets are buffered.
type stuckSystem struct{ occ int }

func (s *stuckSystem) Name() string                     { return "stuck" }
func (s *stuckSystem) Step(arrivals []pkt.Packet) error { s.occ += len(arrivals); return nil }
func (s *stuckSystem) Drain() int                       { return 0 }
func (s *stuckSystem) Stats() core.Stats                { return core.Stats{} }
func (s *stuckSystem) Reset()                           { s.occ = 0 }
func (s *stuckSystem) DrainMax(max int) (int, bool)     { return max, s.occ == 0 }

func TestRunTraceBoundsDrains(t *testing.T) {
	tr := traffic.Slots([]pkt.Packet{pkt.NewWork(0, 1)})
	if _, err := RunTrace(&stuckSystem{}, tr, 0); err == nil ||
		!strings.Contains(err.Error(), "drain did not empty") {
		t.Errorf("non-draining system: got %v, want drain-bound error", err)
	}
	// An empty stuck system drains trivially.
	if _, err := RunTrace(&stuckSystem{}, traffic.Slots(nil), 0); err != nil {
		t.Errorf("empty system: %v", err)
	}
}

// TestLockstepCancellation: a canceled context stops a run before its
// first slot, naming the system and the slot.
func TestLockstepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := traffic.Slots(nil, nil)
	_, err := Lockstep(ctx, tr, RunOptions{}, 1, &stuckSystem{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "stuck at slot 0") {
		t.Errorf("error %v does not name the system and slot", err)
	}
}

func TestSweepConfinesPanics(t *testing.T) {
	s := testSweep()
	s.Build = func(x int, seed int64) (Instance, error) {
		if x == 4 {
			panic("injected test panic")
		}
		return buildCell(x, seed)
	}
	res, err := s.Run()
	if err == nil {
		t.Fatal("panicking cells reported no error")
	}
	if res == nil {
		t.Fatal("panicking cells discarded the completed points")
	}
	if !res.Partial {
		t.Error("result not marked partial")
	}
	// The healthy swept values still completed with all seeds.
	if len(res.Points) != 2 || res.Points[0].X != 2 || res.Points[1].X != 8 {
		t.Fatalf("points %+v, want x=2 and x=8", res.Points)
	}
	for _, p := range res.Points {
		if n := p.Ratio["LWD"].N; n != 3 {
			t.Errorf("x=%d has %d replications, want 3", p.X, n)
		}
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v carries no *CellError", err)
	}
	if ce.X != 4 || ce.Sweep != "test" || ce.XLabel != "x" {
		t.Errorf("cell identity %+v, want sweep test x=4", ce)
	}
	if ce.Seed != s.cellSeed(1, ce.SeedIndex) {
		t.Errorf("cell seed %d does not match the derivation", ce.Seed)
	}
	if len(ce.Stack) == 0 {
		t.Error("panic CellError has no stack")
	}
	msg := err.Error()
	if !strings.Contains(msg, `sweep "test" cell x=4`) || !strings.Contains(msg, "injected test panic") {
		t.Errorf("error message %q does not name the cell and panic", msg)
	}
}

func TestSweepCancellationReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := testSweep()
	s.Parallelism = 1
	var builds int32
	s.Build = func(x int, seed int64) (Instance, error) {
		// Cells run in order under Parallelism=1; cancel while building
		// the fourth cell, after all three x=2 replications completed.
		if atomic.AddInt32(&builds, 1) == 4 {
			cancel()
		}
		return buildCell(x, seed)
	}
	res, err := s.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	var ce *CellError
	if errors.As(err, &ce) {
		t.Errorf("cancellation surfaced as cell failure: %v", ce)
	}
	if res == nil || !res.Partial {
		t.Fatalf("result %+v, want partial", res)
	}
	if len(res.Points) != 1 || res.Points[0].X != 2 {
		t.Fatalf("points %+v, want only x=2", res.Points)
	}
	if n := res.Points[0].Ratio["Greedy"].N; n != 3 {
		t.Errorf("x=2 has %d replications, want 3", n)
	}
}

func TestSweepCellTimeout(t *testing.T) {
	s := testSweep()
	s.CellTimeout = time.Nanosecond // every cell blows its deadline
	res, err := s.Run()
	if err == nil {
		t.Fatal("blown deadlines reported no error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("got %v, want wrapped DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "cell deadline") {
		t.Errorf("error %v does not mention the cell deadline", err)
	}
	if res == nil || !res.Partial || len(res.Points) != 0 {
		t.Errorf("result %+v, want empty partial", res)
	}
}

func TestSweepValidatesDuplicatesAndParallelism(t *testing.T) {
	s := testSweep()
	s.Xs = []int{2, 4, 2}
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate Xs: got %v", err)
	}
	s = testSweep()
	s.Parallelism = -3
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "Parallelism") {
		t.Errorf("negative parallelism: got %v", err)
	}
}

// panicAdmit is a policy whose Admit panics. It has no batch kernel, so
// the engine calls Admit on the first arrival.
type panicAdmit struct{}

func (panicAdmit) Name() string { return "PanicAdmit" }
func (panicAdmit) Admit(core.View, pkt.Packet) core.Decision {
	panic("injected admit panic")
}

// panicSource is an arrival stream whose Next panics.
type panicSource struct{}

func (panicSource) Next() []pkt.Packet { panic("injected cursor panic") }

// panicProvider is a 100-slot provider whose cursors panic.
type panicProvider struct{}

func (panicProvider) Slots() int                    { return 100 }
func (panicProvider) Open() (traffic.Cursor, error) { return traffic.AsCursor(panicSource{}), nil }

// TestReplayPanicConfined pins panic confinement on every replay path:
// a policy that panics inside a replay yields a *CellError carrying the
// panic text and the panicking goroutine's stack whether the cell's
// replays run one at a time or fan out over the intra-cell workers, and
// a plain error from Instance.Run. A provider whose cursor panics while
// the run copies its arrivals is confined the same way.
func TestReplayPanicConfined(t *testing.T) {
	build := func(x int, seed int64) (Instance, error) {
		inst, err := buildCell(x, seed)
		inst.Policies = []core.Policy{policy.Greedy{}, panicAdmit{}, policy.LWD{}}
		return inst, err
	}
	for _, par := range []int{8, 1} {
		s := testSweep()
		s.Xs, s.Seeds, s.Parallelism, s.Build = []int{2}, 1, par, build
		_, err := s.Run()
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("Parallelism %d: error %v carries no *CellError", par, err)
		}
		if !strings.Contains(ce.Error(), "PanicAdmit: panic: injected admit panic") {
			t.Errorf("Parallelism %d: error %q lacks the panic text", par, ce.Error())
		}
		if !strings.Contains(string(ce.Stack), "panicAdmit.Admit") {
			t.Errorf("Parallelism %d: stack does not reach the panicking Admit:\n%s", par, ce.Stack)
		}
	}
	inst, _ := build(2, 1)
	inst.Parallelism = 4
	_, err := inst.Run()
	if err == nil || !strings.Contains(err.Error(), "PanicAdmit: panic: injected admit panic") {
		t.Fatalf("Instance.Run: got %v, want the panic text", err)
	}
	var rp *replayPanic
	if !errors.As(err, &rp) || !strings.Contains(string(rp.stack), "panicAdmit.Admit") {
		t.Errorf("Instance.Run: error %v carries no panicking stack", err)
	}

	s := testSweep()
	s.Xs, s.Seeds, s.Parallelism = []int{2}, 1, 8
	s.Build = func(x int, seed int64) (Instance, error) {
		inst, err := buildCell(x, seed)
		inst.Provider = panicProvider{}
		return inst, err
	}
	_, err = s.Run()
	var ce *CellError
	if !errors.As(err, &ce) || !strings.Contains(ce.Error(), "sim: arrivals: panic: injected cursor panic") {
		t.Fatalf("panicking cursor: got %v, want a *CellError with the panic text", err)
	}
	if !strings.Contains(string(ce.Stack), "panicSource.Next") {
		t.Errorf("panicking cursor: stack does not reach the panicking Next:\n%s", ce.Stack)
	}
}
