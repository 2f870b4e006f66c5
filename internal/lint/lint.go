// Package lint is a self-contained static-analysis framework that
// mechanically enforces the engine's determinism, seeding and hot-path
// contracts (DESIGN.md §11). It mirrors the golang.org/x/tools
// go/analysis API shape — Analyzer, Pass, positional diagnostics —
// so the suite can migrate onto the real module with a mechanical
// rewrite once external dependencies are available; the build
// environment for this repository is fully offline, so the framework
// is implemented on the standard library alone (go/ast, go/types,
// go/importer) with package loading delegated to `go list -export`
// (see load.go).
//
// The analyzers themselves live in subpackages (detmap, seedrand,
// wallclock, hotalloc, cursorerr, exporteddoc);
// internal/lint/suite aggregates them for cmd/smblint, `make lint`
// and the CI lint job.
//
// Four source annotations steer the suite:
//
//   - //smb:hotpath — placed in a function's doc comment, marks the
//     function as an allocation-free hot path checked by hotalloc;
//   - //smb:nondet-ok <reason> — placed on (or immediately above) a map
//     range statement in an engine package, records why the iteration
//     order provably cannot leak into simulation results. The reason is
//     mandatory.
//   - //smb:alloc-ok <reason> — placed on (or immediately above) a line
//     inside a //smb:hotpath function, exempts that line from hotalloc
//     (for provably cold branches such as error exits). The reason is
//     mandatory.
//   - //smb:conc-ok <reason> — placed on (or immediately above) a line
//     in a deterministic engine package, or in a function's doc
//     comment, exempts that line (or function) from the concfence
//     concurrency fence (go statements, channel operations,
//     sync/sync-atomic imports). The reason is mandatory.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// An Analyzer describes one static check: a name, what it enforces,
// and a Run function applied once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is a one-paragraph description of the enforced contract.
	Doc string
	// Run applies the check to one package via the Pass.
	Run func(*Pass) error
}

// A Diagnostic is one reported contract violation at a position.
type Diagnostic struct {
	// Pos locates the violation (file:line:column).
	Pos token.Position
	// Analyzer names the reporting analyzer.
	Analyzer string
	// Message describes the violation.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one package's syntax and type information to an
// analyzer's Run function, mirroring go/analysis.Pass. Types and
// TypesInfo are nil in syntax-only mode (LoadSyntax); analyzers that
// need type information must call NeedsTypes to degrade gracefully.
type Pass struct {
	// Analyzer is the running analyzer.
	Analyzer *Analyzer
	// Fset maps positions for all Files.
	Fset *token.FileSet
	// Files holds the package's parsed, comment-bearing syntax trees.
	Files []*ast.File
	// Path is the package's import path ("smbm/internal/core"; fixture
	// packages use their bare directory name).
	Path string
	// Dir is the package directory on disk. Compiler-diagnostic
	// analyzers (escapecheck, hotcall) shell out to `go build` here.
	Dir string
	// Pkg is the type-checked package, nil in syntax-only mode.
	Pkg *types.Package
	// TypesInfo records type and object resolution for Files, nil in
	// syntax-only mode.
	TypesInfo *types.Info

	annots map[string]map[int][]Annotation // filename -> line -> annotations
	report func(Diagnostic)
}

// NeedsTypes reports whether the pass lacks type information that the
// analyzer requires; such passes should return without diagnostics.
func (p *Pass) NeedsTypes() bool { return p.TypesInfo == nil }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expr, or nil when unknown or in
// syntax-only mode.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.TypeOf(expr)
}

// An Annotation is one parsed //smb:<tag> marker in a source comment.
type Annotation struct {
	// Tag is the marker name without the smb: prefix ("hotpath",
	// "nondet-ok", "alloc-ok").
	Tag string
	// Reason is the free text following the tag, "" when absent.
	Reason string
	// Line is the 1-based source line the comment sits on (its end
	// line, for multi-line comment groups).
	Line int
}

// annotationPrefix introduces all in-source lint markers.
const annotationPrefix = "smb:"

// parseAnnotations indexes every //smb:* marker of every file by
// filename and line.
func parseAnnotations(fset *token.FileSet, files []*ast.File) map[string]map[int][]Annotation {
	out := make(map[string]map[int][]Annotation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, annotationPrefix) {
					continue
				}
				body := strings.TrimPrefix(text, annotationPrefix)
				tag, reason, _ := strings.Cut(body, " ")
				pos := fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]Annotation)
					out[pos.Filename] = byLine
				}
				a := Annotation{Tag: tag, Reason: strings.TrimSpace(reason), Line: pos.Line}
				byLine[a.Line] = append(byLine[a.Line], a)
			}
		}
	}
	return out
}

// AnnotationAt returns the //smb:<tag> annotation governing pos: one on
// the same source line (trailing comment) or on the line immediately
// above (preceding comment).
func (p *Pass) AnnotationAt(tag string, pos token.Pos) (Annotation, bool) {
	position := p.Fset.Position(pos)
	byLine := p.annots[position.Filename]
	if byLine == nil {
		return Annotation{}, false
	}
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, a := range byLine[line] {
			if a.Tag == tag {
				return a, true
			}
		}
	}
	return Annotation{}, false
}

// AnnotationAtLine is AnnotationAt for positions that arrive as a file
// base name plus line number instead of a token.Pos — the form
// compiler diagnostics (`go build -gcflags=-m=2`) report. Filenames
// are matched on their base name, which is unique within a package.
func (p *Pass) AnnotationAtLine(tag, fileBase string, line int) (Annotation, bool) {
	for filename, byLine := range p.annots {
		if filepath.Base(filename) != fileBase {
			continue
		}
		for _, l := range []int{line, line - 1} {
			for _, a := range byLine[l] {
				if a.Tag == tag {
					return a, true
				}
			}
		}
	}
	return Annotation{}, false
}

// LinePos converts a compiler-diagnostic position (file base name plus
// line) back into a token.Pos inside one of the pass's files, so
// diagnostics derived from `go build` output carry real positions. It
// returns token.NoPos when no parsed file matches.
func LinePos(p *Pass, fileBase string, line int) token.Pos {
	for _, f := range p.Files {
		tf := p.Fset.File(f.Pos())
		if tf == nil || filepath.Base(tf.Name()) != fileBase {
			continue
		}
		if line < 1 || line > tf.LineCount() {
			return token.NoPos
		}
		return tf.LineStart(line)
	}
	return token.NoPos
}

// FuncAnnotated reports whether fn's doc comment carries //smb:<tag>.
func FuncAnnotated(tag string, fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == annotationPrefix+tag || strings.HasPrefix(text, annotationPrefix+tag+" ") {
			return true
		}
	}
	return false
}

// enginePackages names the packages whose code feeds simulation
// results and must therefore stay bit-deterministic: the replay
// engines, the policies, the OPT proxies, the harness, the traffic
// and fault schedules, and the proof checkers. Matching is by final
// import-path element so analyzer fixtures (testdata/src/core) exercise
// the same predicate as the real tree (smbm/internal/core).
var enginePackages = map[string]bool{
	"core":      true,
	"policy":    true,
	"opt":       true,
	"sim":       true,
	"faults":    true,
	"traffic":   true,
	"adversary": true,
	"singleq":   true,
	"mapcheck":  true,
}

// wallclockExempt names the packages where reading the wall clock is
// the point: operator-facing progress reporting and report
// timestamping. Everything else must not observe real time.
var wallclockExempt = map[string]bool{
	"cli":    true,
	"report": true,
}

// policyPackages names the packages that hold buffer-management
// policies: pure functions over a read-only switch view. The fastviewro
// analyzer forbids writes through FastView-returned slices there.
var policyPackages = map[string]bool{
	"policy": true,
}

// concFencePackages names the packages inside the deterministic-engine
// fence checked by concfence: the bit-reproducible replay core and the
// pure data structures it is built from. No goroutines, channel
// operations or sync primitives may appear there without a
// //smb:conc-ok <reason> annotation — the fence is what keeps the
// sharded runtime's shard boundary auditable: each shard of
// internal/shard steps a fenced core.Switch single-threaded, and the
// deterministic engine stays the differential oracle. Concurrency
// lives outside, in shard/sim/cli/obs and cmd/smbsimd, which
// are deliberately absent from this list.
var concFencePackages = map[string]bool{
	"core":    true,
	"policy":  true,
	"opt":     true,
	"pkt":     true,
	"traffic": true,
	"deque":   true,
	"bmset":   true,
	"singleq": true,
}

// EnginePackage reports whether the import path names one of the
// deterministic engine packages (matched on the final path element).
func EnginePackage(path string) bool { return enginePackages[PathBase(path)] }

// ConcFencePackage reports whether the import path names a package
// inside the deterministic-engine concurrency fence (matched on the
// final path element), where concfence forbids goroutines, channel
// operations and sync primitives without an annotation.
func ConcFencePackage(path string) bool { return concFencePackages[PathBase(path)] }

// ConcFencePackageList returns the sorted fenced package names, for
// documentation and tests.
func ConcFencePackageList() []string {
	out := make([]string, 0, len(concFencePackages))
	for name := range concFencePackages {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PolicyPackage reports whether the import path names a policy package
// (matched on the final path element), whose code is bound by the
// read-only FastView contract checked by fastviewro.
func PolicyPackage(path string) bool { return policyPackages[PathBase(path)] }

// WallclockExempt reports whether the import path is allow-listed for
// wall-clock reads (matched on the final path element).
func WallclockExempt(path string) bool { return wallclockExempt[PathBase(path)] }

// EnginePackageList returns the sorted engine package names, for
// documentation and tests.
func EnginePackageList() []string {
	out := make([]string, 0, len(enginePackages))
	for name := range enginePackages {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PathBase returns the final element of an import path.
func PathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// RunAnalyzer applies one analyzer to one loaded package and returns
// its diagnostics sorted by position.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Path:      pkg.Path,
		Dir:       pkg.Dir,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		annots:    parseAnnotations(pkg.Fset, pkg.Files),
		report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
