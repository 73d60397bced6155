// Package analysis is a dependency-free re-implementation of the subset
// of golang.org/x/tools/go/analysis that the jouleslint analyzers need.
//
// The repository is intentionally module-dependency-free, so the real
// x/tools framework is not available; this package mirrors its core
// vocabulary — an Analyzer holds a Run function, a Pass hands it one
// type-checked package, diagnostics are reported through the Pass — so
// the analyzers read exactly like stock go/analysis code and could be
// ported to the real framework by swapping an import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in the
	// //jouleslint:ignore suppression comments.
	Name string
	// Doc is the analyzer's help text; the first line is its summary.
	Doc string
	// Requires lists the whole-unit facts the analyzer reads through
	// Pass.Unit.FactOf. The driver precomputes them (and times them
	// separately), so per-package runs never pay for fact construction.
	Requires []*Fact
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass presents one type-checked package to an analyzer's Run function.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps token positions to file locations.
	Fset *token.FileSet
	// Files are the package's parsed source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checking results for the package.
	TypesInfo *types.Info
	// Dep returns a transitively imported package by path (nil when the
	// package is not in the import closure). Analyzers use it to look up
	// well-known types such as net.Conn.
	Dep func(path string) *types.Package
	// Unit is the whole load this package belongs to; interprocedural
	// analyzers read shared facts from it via FactOf. Nil under drivers
	// that have no whole-unit view.
	Unit *Unit
	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// SuggestedFixes are mechanical rewrites that resolve the finding;
	// `jouleslint -fix` applies the first fix of every finding. Fixes
	// must be correct in isolation — the applier skips edits that
	// overlap an already-applied one.
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one self-contained rewrite resolving a diagnostic.
type SuggestedFix struct {
	// Message says what the fix does, e.g. "rename to snmp_polls_total".
	Message string
	// TextEdits are the byte-range replacements; they must not overlap.
	TextEdits []TextEdit
}

// TextEdit replaces the source range [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// IgnoreDirective is the comment prefix that suppresses a finding on its
// line (or on the line immediately below a comment-only line):
//
//	//jouleslint:ignore determinism -- timing a shard for telemetry only
type IgnoreDirective = string

const ignorePrefix = "//jouleslint:ignore "

// suppressedLines collects, per file, the line numbers whose diagnostics
// the given analyzer name suppresses. A directive suppresses its own line
// and the following line, so it works both as a trailing comment and as a
// comment line above the flagged statement.
func suppressedLines(fset *token.FileSet, files []*ast.File, name string) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok {
					continue
				}
				target, _, _ := strings.Cut(rest, "--")
				if strings.TrimSpace(target) != name {
					continue
				}
				pos := fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = make(map[int]bool)
					out[pos.Filename] = m
				}
				m[pos.Line] = true
				m[pos.Line+1] = true
			}
		}
	}
	return out
}

// FilterSuppressed drops diagnostics whose position carries a
// //jouleslint:ignore directive for the analyzer. Both the CLI driver and
// the analysistest harness apply it, so suppressions behave identically
// in production runs and in golden tests.
func FilterSuppressed(fset *token.FileSet, files []*ast.File, name string, diags []Diagnostic) []Diagnostic {
	lines := suppressedLines(fset, files, name)
	out := diags[:0]
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if lines[pos.Filename][pos.Line] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// WalkStack traverses every file of the pass in source order, calling fn
// with each node and the stack of its ancestors (outermost first, not
// including the node itself). Returning false skips the node's children.
func WalkStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}

// PkgPathMatches reports whether a package's import path names one of the
// given directories, by suffix: "fantasticjoules/internal/ispnet" matches
// "internal/ispnet", and so do the testdata packages the golden suites
// load under the same relative paths.
func PkgPathMatches(path string, dirs []string) bool {
	for _, d := range dirs {
		if path == d || strings.HasSuffix(path, "/"+d) {
			return true
		}
	}
	return false
}

// FuncFor returns the innermost function boundary (func declaration or
// function literal) in the ancestor stack, or nil when the node is at
// package level. Analyzers use it to keep lexical reasoning — "a deadline
// call earlier in this function" — from leaking across goroutine bodies.
func FuncFor(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}
