// Package escapecheck implements the compiler-verified face of the
// hot-path allocation contract: every function whose doc comment
// carries //smb:hotpath is proven heap-allocation-free by the escape
// analysis of the compiler itself, not by pattern-matching source
// constructs. The analyzer is not an AST walker — it compiles the
// package with `go build -gcflags=-m=2` (via gcdiag), collects every
// "escapes to heap" / "moved to heap" site, and reports the ones that
// fall inside a //smb:hotpath function's body span.
//
// This closes the two holes the syntactic hotalloc gate leaves open:
// allocations hotalloc has no pattern for (append growth, string
// concatenation, make with non-constant size, boxing hidden behind
// type inference), and hot functions no test exercises — the dynamic
// zero-allocation test (internal/sim TestSteadyStateZeroAllocs) only
// covers the replayed subset, while every annotated function compiles
// on every build. //smb:alloc-ok <reason> remains the cold-line escape hatch,
// shared with hotalloc.
//
// The compiler's -m output is versioned with the toolchain (DESIGN.md
// §16): inlining budgets and escape precision shift between releases,
// so a toolchain upgrade can surface new sites (escape analysis only
// gets more precise, so accepted code stays accepted; newly flagged
// sites are real allocations that were previously folded elsewhere).
package escapecheck

import (
	"go/ast"
	"path/filepath"

	"smbm/internal/lint"
	"smbm/internal/lint/gcdiag"
)

// Analyzer is the escapecheck analyzer instance.
var Analyzer = &lint.Analyzer{
	Name: "escapecheck",
	Doc: "prove //smb:hotpath functions heap-allocation-free with the " +
		"compiler's own escape analysis (go build -gcflags=-m=2)",
	Run: run,
}

// span is one hot function's source extent.
type span struct {
	file     string // base name
	from, to int    // inclusive line range
	name     string
}

// run applies escapecheck to one package.
func run(pass *lint.Pass) error {
	spans := hotSpans(pass)
	if len(spans) == 0 {
		return nil // nothing hot: skip the compile entirely
	}
	var files []string
	for _, f := range pass.Files {
		files = append(files, filepath.Base(pass.Fset.Position(f.Pos()).Filename))
	}
	report, err := gcdiag.For(pass.Dir, files)
	if err != nil {
		return err
	}
	for _, esc := range report.Escapes {
		fn := containing(spans, esc.File, esc.Line)
		if fn == nil {
			continue // a cold function may allocate freely
		}
		pos := lint.LinePos(pass, esc.File, esc.Line)
		if ann, ok := pass.AnnotationAtLine("alloc-ok", esc.File, esc.Line); ok {
			if ann.Reason == "" {
				pass.Reportf(pos, "//smb:alloc-ok requires a reason explaining why this line is cold")
			}
			continue
		}
		pass.Reportf(pos, "heap allocation in //smb:hotpath function %s: %s (compiler escape analysis)", fn.name, esc.Text)
	}
	return nil
}

// hotSpans indexes every //smb:hotpath function body by file and line
// range.
func hotSpans(pass *lint.Pass) []span {
	var spans []span
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !lint.FuncAnnotated("hotpath", fn) {
				continue
			}
			from := pass.Fset.Position(fn.Pos())
			to := pass.Fset.Position(fn.End())
			spans = append(spans, span{
				file: filepath.Base(from.Filename),
				from: from.Line,
				to:   to.Line,
				name: fn.Name.Name,
			})
		}
	}
	return spans
}

// containing returns the hot span covering file:line, or the zero name
// when the position is cold.
func containing(spans []span, file string, line int) *span {
	for i := range spans {
		s := &spans[i]
		if s.file == file && line >= s.from && line <= s.to {
			return s
		}
	}
	return nil
}
