// Package concfence fences concurrency out of the deterministic
// engine. The packages inside the fence (core, policy, opt, pkt,
// traffic, deque, bmset, singleq — lint.ConcFencePackage) are the
// bit-reproducible replay engine the differential suites treat as an
// oracle; the sharded runtime (internal/shard, cmd/smbsimd) and the
// sweep harness (internal/sim) wrap concurrency *around* them, never
// inside. The shard oracle differential (TestRuntimeOracleDifferential)
// relies on that boundary: a `go` statement or a mutex dropped into
// internal/core would silently break bit reproduction, so the fence is
// enforced at the source level:
//
//   - no `go` statements;
//   - no channel operations: sends, receives, close, select, range
//     over a channel, channel types (including make(chan …));
//   - no imports of sync or sync/atomic.
//
// A deliberate exception carries //smb:conc-ok <reason> on the line
// (or the line above, or the enclosing function's doc comment); the
// reason is mandatory. No fenced package carries one today: the
// arrival window that replays share is filled by internal/sim while
// no replay runs, so traffic needs no lock. The testdata traffic fixture
// shows the form an exception takes, a cache guard that never
// influences the bit stream cursors observe. The harness packages
// (sim, cli, obs) are outside the fence: orchestrating goroutines is
// their job.
package concfence

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"smbm/internal/lint"
)

// Analyzer is the concfence analyzer instance.
var Analyzer = &lint.Analyzer{
	Name: "concfence",
	Doc: "forbid goroutines, channel operations and sync primitives in " +
		"the deterministic engine packages without //smb:conc-ok <reason>",
	Run: run,
}

// fencedImports names the import paths the fence rejects.
var fencedImports = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
}

// run applies concfence to one package.
func run(pass *lint.Pass) error {
	if !lint.ConcFencePackage(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if fencedImports[path] {
				reportAt(pass, imp.Pos(), "import of %s in deterministic engine package: concurrency belongs outside the engine fence", path)
			}
		}
		for _, decl := range file.Decls {
			fn, isFunc := decl.(*ast.FuncDecl)
			if isFunc && fn.Body != nil {
				checkFunc(pass, fn)
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				checkNode(pass, n)
				return true
			})
		}
	}
	return nil
}

// checkFunc walks one function body; the declaration's doc-level
// //smb:conc-ok (with reason) licenses the whole function.
func checkFunc(pass *lint.Pass, fn *ast.FuncDecl) {
	if fnAnn, ok := funcConcOK(fn); ok {
		if fnAnn == "" {
			pass.Reportf(fn.Pos(), "//smb:conc-ok requires a reason explaining why this concurrency cannot reach simulation results")
		}
		return
	}
	if fn.Recv != nil {
		ast.Inspect(fn.Recv, func(n ast.Node) bool { checkNode(pass, n); return true })
	}
	ast.Inspect(fn.Type, func(n ast.Node) bool { checkNode(pass, n); return true })
	ast.Inspect(fn.Body, func(n ast.Node) bool { checkNode(pass, n); return true })
}

// checkNode flags one fenced construct.
func checkNode(pass *lint.Pass, n ast.Node) {
	switch n := n.(type) {
	case *ast.GoStmt:
		reportAt(pass, n.Pos(), "go statement in deterministic engine package: goroutines break bit reproduction")
	case *ast.SendStmt:
		reportAt(pass, n.Pos(), "channel send in deterministic engine package")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			reportAt(pass, n.Pos(), "channel receive in deterministic engine package")
		}
	case *ast.SelectStmt:
		reportAt(pass, n.Pos(), "select statement in deterministic engine package")
	case *ast.ChanType:
		reportAt(pass, n.Pos(), "channel type in deterministic engine package")
	case *ast.RangeStmt:
		if t := pass.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				reportAt(pass, n.Pos(), "range over a channel in deterministic engine package")
			}
		}
	case *ast.CallExpr:
		if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
					reportAt(pass, n.Pos(), "close of a channel in deterministic engine package")
				}
			}
		}
	}
}

// funcConcOK reports whether fn's doc comment carries //smb:conc-ok,
// returning its reason.
func funcConcOK(fn *ast.FuncDecl) (reason string, ok bool) {
	if fn.Doc == nil {
		return "", false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "smb:conc-ok" {
			return "", true
		}
		if rest, found := strings.CutPrefix(text, "smb:conc-ok "); found {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// reportAt emits a diagnostic unless the line (or the line above)
// carries //smb:conc-ok with a reason; an annotation without a reason
// is itself a violation.
func reportAt(pass *lint.Pass, pos token.Pos, format string, args ...any) {
	if ann, ok := pass.AnnotationAt("conc-ok", pos); ok {
		if ann.Reason == "" {
			pass.Reportf(pos, "//smb:conc-ok requires a reason explaining why this concurrency cannot reach simulation results")
		}
		return
	}
	pass.Reportf(pos, format, args...)
}
