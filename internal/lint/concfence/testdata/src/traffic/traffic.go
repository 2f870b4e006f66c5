// Package traffic is a concfence fixture named after a fenced engine
// package whose concurrency is deliberate and annotated: every
// construct carries //smb:conc-ok with a reason, on the line or on
// the function, so the fixture stays clean.
package traffic

//smb:conc-ok cross-replay memo guard, results replayed bit-identically
import "sync"

// Memo is a cross-replay cache: the mutex serializes installs but the
// cached value is the same for every caller, so no concurrency reaches
// results.
type Memo struct {
	mu sync.Mutex //smb:conc-ok guards the install race only, never ordering
	v  int
	ok bool
}

// Get returns the cached value, computing it once.
//
//smb:conc-ok double-checked install; every caller observes the same value
func (m *Memo) Get(compute func() int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.ok {
		m.v, m.ok = compute(), true
	}
	return m.v
}

// Pure is ordinary engine code: nothing to annotate, nothing flagged.
func Pure(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
