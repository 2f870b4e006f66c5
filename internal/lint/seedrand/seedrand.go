// Package seedrand implements the seeding analyzer: all randomness in
// the repository must flow from an explicit seed carried through a
// config or spec, so the MMPP traffic the Section V simulation study
// depends on is exactly reproducible from its recorded seeds. A seed
// reaches its draws through rand.NewSource: either wrapped in a
// *rand.Rand, or, in the MMPP generator (internal/traffic), copied into
// the generator's own register, which reproduces that source's stream
// draw for draw.
//
// It forbids, in every package:
//
//   - the top-level convenience functions of math/rand and
//     math/rand/v2 (rand.Intn, rand.Float64, rand.Perm, …), which draw
//     from the process-global, unseeded source;
//   - constructing a source or generator from the wall clock
//     (rand.NewSource(time.Now().UnixNano()) and friends), which makes
//     every run different by design.
//
// Constructors (rand.New, rand.NewSource, rand.NewZipf, rand.NewPCG,
// rand.NewChaCha8) with explicit seeds and all methods on *rand.Rand
// remain available.
package seedrand

import (
	"go/ast"
	"go/types"

	"smbm/internal/lint"
)

// Analyzer is the seedrand analyzer instance.
var Analyzer = &lint.Analyzer{
	Name: "seedrand",
	Doc: "forbid top-level math/rand functions and wall-clock seeding; " +
		"randomness must flow from an explicit seed through rand.NewSource",
	Run: run,
}

// constructors are the math/rand functions that build explicit
// generators rather than drawing from the global source.
var constructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// seedTaking are the constructors whose arguments are seeds, checked
// for wall-clock derivation. rand.New takes a Source, whose own
// construction is checked at its own call site.
var seedTaking = map[string]bool{
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// run applies seedrand to one package.
func run(pass *lint.Pass) error {
	if pass.NeedsTypes() {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
			default:
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods on an explicit generator are fine
			}
			name := fn.Name()
			if !constructors[name] {
				pass.Reportf(call.Pos(), "top-level %s.%s draws from the process-global source; draw from an explicitly seeded *rand.Rand threaded through the config/spec", fn.Pkg().Path(), name)
				return true
			}
			if seedTaking[name] && argsReadWallClock(pass, call) {
				pass.Reportf(call.Pos(), "%s.%s seeded from the wall clock; thread an explicit seed through the config/spec so runs are reproducible", fn.Pkg().Path(), name)
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves the called function object, nil when the callee
// is not a named function (builtins, conversions, function values).
func calleeFunc(pass *lint.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// argsReadWallClock reports whether any argument subtree calls
// time.Now, time.Since or time.Until.
func argsReadWallClock(pass *lint.Pass, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, inner)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			switch fn.Name() {
			case "Now", "Since", "Until":
				found = true
				return false
			}
			return true
		})
	}
	return found
}
