// Package gcdiag runs the Go compiler's escape-analysis and inlining
// diagnostics (`go build -gcflags=-m=2`) over one package directory
// and parses them into a position-indexed Report. It is the shared
// substrate of the compiler-verified analyzers: escapecheck consumes
// the heap-escape sites, hotcall the per-call-site inlining record.
//
// The package is always compiled from its explicit file list (the
// `command-line-arguments` pseudo-package), so the same invocation
// works inside the module tree and inside out-of-module linttest
// fixture directories; dependencies resolve through the normal build
// cache, and Go's build cache replays the diagnostic output of an
// unchanged compile, so repeated lint runs after a warm `go build
// ./...` cost milliseconds per package.
//
// The diagnostic text is an unstable compiler interface: the phrases
// matched here ("escapes to heap", "moved to heap", "inlining call
// to") are stable across recent releases but are not covered by the
// Go 1 compatibility promise, and inlining budgets shift between
// releases, so a toolchain upgrade can change which call sites report
// as inlined. DESIGN.md §16 records this sensitivity; the dynamic
// zero-allocation test (internal/sim TestSteadyStateZeroAllocs) is the
// release-independent cross-check.
package gcdiag

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// A Site is one parsed compiler diagnostic position plus message.
type Site struct {
	// File is the base name of the source file.
	File string
	// Line is the 1-based source line.
	Line int
	// Col is the 1-based source column.
	Col int
	// Text is the diagnostic message after the position prefix.
	Text string
}

// A Report holds one package compile's parsed diagnostics.
type Report struct {
	// Escapes lists every heap-allocation site the escape analysis
	// reported ("… escapes to heap", "moved to heap: x"), deduplicated
	// by position (−m=2 restates each site once per explanation flow).
	Escapes []Site

	// inlined maps "file:line" to the callee names the compiler
	// reported inlining at that line ("inlining call to <name>").
	inlined map[string][]string
}

// InlinedAt reports whether the compiler inlined a call to callee at
// file:line. Matching is by line (the compiler's column for a call
// can differ from the AST's) and by callee base name: the diagnostic
// renders methods as `pkg.(*Recv).Name` or `Recv.Name` and generic
// instantiations as `Name[go.shape…]`, so the callee matches when its
// bare name appears as the final name element of the reported callee.
func (r *Report) InlinedAt(file string, line int, callee string) bool {
	for _, name := range r.inlined[file+":"+strconv.Itoa(line)] {
		if inlinedName(name) == callee {
			return true
		}
	}
	return false
}

// inlinedName extracts the bare function name from a compiler-rendered
// callee: "core.(*Batch).Accept" -> "Accept", "nhstRule.admit" ->
// "admit", "thresholdBatch[go.shape.struct { … }]" -> "thresholdBatch".
func inlinedName(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	if i := strings.LastIndexByte(name, ')'); i >= 0 {
		name = name[i+1:]
	}
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return strings.TrimSpace(name)
}

// cache memoizes one Report per package directory: several analyzers
// (escapecheck, hotcall) consume the same compile, and the driver runs
// them back to back over the same package.
var cache = struct {
	sync.Mutex
	reports map[string]*Report
	errs    map[string]error
}{reports: map[string]*Report{}, errs: map[string]error{}}

// For compiles the named files of dir with -gcflags=-m=2 and returns
// the parsed diagnostics, memoized per directory.
func For(dir string, files []string) (*Report, error) {
	key, err := filepath.Abs(dir)
	if err != nil {
		key = dir
	}
	cache.Lock()
	defer cache.Unlock()
	if r, ok := cache.reports[key]; ok {
		return r, nil
	}
	if err, ok := cache.errs[key]; ok {
		return nil, err
	}
	r, err := compile(dir, files)
	if err != nil {
		cache.errs[key] = err
		return nil, err
	}
	cache.reports[key] = r
	return r, nil
}

// compile runs the diagnostic build and parses its stderr.
func compile(dir string, files []string) (*Report, error) {
	args := append([]string{"build", "-gcflags=-m=2"}, files...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	// go build of a non-main command-line-arguments package writes no
	// artifact; diagnostics arrive on stderr, one position per line.
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("gcdiag: go build -gcflags=-m=2 in %s: %v\n%s", dir, err, out.String())
	}
	return parse(out.String()), nil
}

// parse splits the -m=2 stream into escape sites and inlining records.
func parse(output string) *Report {
	r := &Report{inlined: map[string][]string{}}
	seen := map[string]bool{}
	for _, line := range strings.Split(output, "\n") {
		site, msg, ok := splitDiag(line)
		if !ok {
			continue
		}
		switch {
		case strings.HasPrefix(msg, "inlining call to "):
			key := site.File + ":" + strconv.Itoa(site.Line)
			r.inlined[key] = append(r.inlined[key], strings.TrimPrefix(msg, "inlining call to "))
		case strings.HasSuffix(msg, "escapes to heap") ||
			strings.HasSuffix(msg, "escapes to heap:") ||
			strings.HasPrefix(msg, "moved to heap:"):
			key := fmt.Sprintf("%s:%d:%d", site.File, site.Line, site.Col)
			if !seen[key] {
				seen[key] = true
				site.Text = strings.TrimSuffix(msg, ":")
				r.Escapes = append(r.Escapes, site)
			}
		}
	}
	return r
}

// splitDiag parses one `path:line:col: message` diagnostic line,
// rejecting the indented -m=2 explanation continuations ("flow: …",
// "from … at …") that restate the same position.
func splitDiag(line string) (Site, string, bool) {
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
		return Site{}, "", false
	}
	l, err1 := strconv.Atoi(parts[1])
	c, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || len(parts[3]) < 2 || parts[3][0] != ' ' {
		return Site{}, "", false
	}
	msg := parts[3][1:]
	if strings.HasPrefix(msg, " ") { // indented continuation line
		return Site{}, "", false
	}
	return Site{File: filepath.Base(parts[0]), Line: l, Col: c}, msg, true
}
