package deque

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroValueIsEmpty(t *testing.T) {
	var d Deque
	if !d.Empty() {
		t.Error("zero-value deque is not empty")
	}
	if d.Len() != 0 {
		t.Errorf("Len() = %d, want 0", d.Len())
	}
}

func TestPushBackPopFrontFIFO(t *testing.T) {
	var d Deque
	for i := int64(0); i < 100; i++ {
		d.PushBack(i)
	}
	if d.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", d.Len())
	}
	for i := int64(0); i < 100; i++ {
		if got := d.PopFront(); got != i {
			t.Fatalf("PopFront() = %d, want %d", got, i)
		}
	}
	if !d.Empty() {
		t.Error("deque not empty after popping everything")
	}
}

func TestPushBackPopBackLIFO(t *testing.T) {
	var d Deque
	for i := int64(0); i < 50; i++ {
		d.PushBack(i)
	}
	for i := int64(49); i >= 0; i-- {
		if got := d.PopBack(); got != i {
			t.Fatalf("PopBack() = %d, want %d", got, i)
		}
	}
}

func TestFrontBackAt(t *testing.T) {
	var d Deque
	for i := int64(10); i <= 30; i += 10 {
		d.PushBack(i)
	}
	if got := d.Front(); got != 10 {
		t.Errorf("Front() = %d, want 10", got)
	}
	if got := d.Back(); got != 30 {
		t.Errorf("Back() = %d, want 30", got)
	}
	for i, want := range []int64{10, 20, 30} {
		if got := d.At(i); got != want {
			t.Errorf("At(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestClear(t *testing.T) {
	var d Deque
	for i := int64(0); i < 10; i++ {
		d.PushBack(i)
	}
	d.Clear()
	if !d.Empty() {
		t.Error("deque not empty after Clear")
	}
	d.PushBack(42)
	if got := d.Front(); got != 42 {
		t.Errorf("Front() after Clear+PushBack = %d, want 42", got)
	}
}

func TestWrapAround(t *testing.T) {
	// Force head to travel around the ring several times.
	var d Deque
	for i := int64(0); i < 6; i++ {
		d.PushBack(i)
	}
	for round := 0; round < 10; round++ {
		for i := 0; i < 5; i++ {
			v := d.PopFront()
			d.PushBack(v + 100)
		}
	}
	if d.Len() != 6 {
		t.Fatalf("Len() = %d, want 6", d.Len())
	}
}

func TestShrinkRetainsContent(t *testing.T) {
	var d Deque
	for i := int64(0); i < 1000; i++ {
		d.PushBack(i)
	}
	for i := int64(0); i < 990; i++ {
		if got := d.PopFront(); got != i {
			t.Fatalf("PopFront() = %d, want %d", got, i)
		}
	}
	for i := int64(990); i < 1000; i++ {
		if got := d.PopFront(); got != i {
			t.Fatalf("after shrink: PopFront() = %d, want %d", got, i)
		}
	}
}

func TestPopEmptyPanics(t *testing.T) {
	for name, op := range map[string]func(*Deque){
		"PopFront": func(d *Deque) { d.PopFront() },
		"PopBack":  func(d *Deque) { d.PopBack() },
		"Front":    func(d *Deque) { d.Front() },
		"Back":     func(d *Deque) { d.Back() },
		"At":       func(d *Deque) { d.At(0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty deque did not panic", name)
				}
			}()
			var d Deque
			op(&d)
		})
	}
}

// TestQuickMatchesReference drives random op sequences against a slice
// reference model.
func TestQuickMatchesReference(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var d Deque
		var ref []int64
		next := int64(0)
		for _, op := range ops {
			switch op % 5 {
			case 0: // PushBack
				d.PushBack(next)
				ref = append(ref, next)
				next++
			case 1: // rotate: PopFront then PushBack, wrapping the ring
				if len(ref) == 0 {
					continue
				}
				d.PushBack(d.PopFront())
				ref = append(ref[1:], ref[0])
			case 2: // PopFront
				if len(ref) == 0 {
					continue
				}
				if got := d.PopFront(); got != ref[0] {
					return false
				}
				ref = ref[1:]
			case 3: // PopBack
				if len(ref) == 0 {
					continue
				}
				if got := d.PopBack(); got != ref[len(ref)-1] {
					return false
				}
				ref = ref[:len(ref)-1]
			case 4: // At random index
				if len(ref) == 0 {
					continue
				}
				i := rng.Intn(len(ref))
				if d.At(i) != ref[i] {
					return false
				}
			}
			if d.Len() != len(ref) {
				return false
			}
		}
		// Drain and compare the full remaining content.
		for i := range ref {
			if d.PopFront() != ref[i] {
				return false
			}
		}
		return d.Empty()
	}
	if err := quick.Check(f, qcfg(200)); err != nil {
		t.Error(err)
	}
}

// qcfg returns a deterministic quick.Config so property tests are
// reproducible run to run.
func qcfg(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(7))}
}
