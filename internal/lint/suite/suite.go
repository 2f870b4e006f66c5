// Package suite aggregates every smblint analyzer for the cmd/smblint
// driver, `make lint` and the CI lint job. It exists so the driver and
// tests share one roster without the framework package importing its
// own analyzers (which would cycle).
package suite

import (
	"smbm/internal/lint"
	"smbm/internal/lint/concfence"
	"smbm/internal/lint/cursorerr"
	"smbm/internal/lint/detmap"
	"smbm/internal/lint/escapecheck"
	"smbm/internal/lint/exporteddoc"
	"smbm/internal/lint/fastviewro"
	"smbm/internal/lint/hotalloc"
	"smbm/internal/lint/hotcall"
	"smbm/internal/lint/seedrand"
	"smbm/internal/lint/wallclock"
)

// Analyzers returns the full roster in deterministic (alphabetical)
// order.
func Analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{
		concfence.Analyzer,
		cursorerr.Analyzer,
		detmap.Analyzer,
		escapecheck.Analyzer,
		exporteddoc.Analyzer,
		fastviewro.Analyzer,
		hotalloc.Analyzer,
		hotcall.Analyzer,
		seedrand.Analyzer,
		wallclock.Analyzer,
	}
}
