// Package wallclock implements the determinism analyzer for real-time
// reads: simulation results must be pure functions of configuration
// and seed, so nothing outside the allow-listed reporting packages
// (cli, report — where wall-clock timing is the point) may
// call time.Now, time.Since or time.Until. Lease-ledger packages are
// delegated to the leaseclock analyzer, which permits wall-clock reads
// only inside //smb:leaseclock-annotated deadline functions.
package wallclock

import (
	"go/ast"
	"go/types"

	"smbm/internal/lint"
)

// Analyzer is the wallclock analyzer instance.
var Analyzer = &lint.Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/time.Since/time.Until outside the allow-listed " +
		"reporting packages (cli, report)",
	Run: run,
}

// forbidden names the time package's wall-clock reads.
var forbidden = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// run applies wallclock to one package.
func run(pass *lint.Pass) error {
	if pass.NeedsTypes() || lint.WallclockExempt(pass.Path) || lint.LeaseClockPackage(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !forbidden[fn.Name()] {
				return true
			}
			pass.Reportf(call.Pos(), "time.%s reads the wall clock in deterministic code; wall-clock timing belongs in cli/report", fn.Name())
			return true
		})
	}
	return nil
}
