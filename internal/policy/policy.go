// Package policy implements the buffer management policies for both
// switch models on the unified engine: Section III of the paper
// (heterogeneous processing requirements, roster ForProcessing) and
// Section IV (heterogeneous packet values, rosters ForValueUniform and
// ForValueByPort). Model-agnostic length-based policies (Greedy, NEST,
// NHDT) are shared across every roster.
//
// Every policy is a pure core.Policy: it inspects the read-only switch
// view and returns a decision; the engine executes it. Tie-breaking rules
// follow the paper text and are documented per policy. Each policy has
// two implementations: its batch kernel (AdmitBatch, usually a rule
// struct driving a generic kernel in kernel.go), which the engine runs,
// and its Admit, a plain-View scan that states the paper's per-packet
// definition literally and serves custom View implementations. The
// differential suites replay each kernel against its Admit.
package policy

import "smbm/internal/core"

// ForProcessing returns the full roster of processing-model policies in
// the order used by the paper's Fig. 5 panels 1–3.
func ForProcessing() []core.Policy {
	return []core.Policy{
		Greedy{},
		NHST{},
		NEST{},
		NHDT{},
		LQD{},
		BPD{},
		BPD1{},
		LWD{},
	}
}

// ByName returns the processing-model policy with the given Name, or nil.
func ByName(name string) core.Policy {
	for _, p := range ForProcessing() {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

// CombinedByName is a compile shim for the retired combined work×value
// model: it returns nil for every name. Its only user is
// benchsuite/layers.go, which still names it.
func CombinedByName(string) core.Policy { return nil }
