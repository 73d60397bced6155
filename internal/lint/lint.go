// Package lint assembles the jouleslint analyzer suite: the static
// checks that machine-enforce the repository's simulation, locking,
// wire-protocol, telemetry, unit-dimension, scratch-arena, and epoch
// invariants.
//
// The suite runs from cmd/jouleslint (and scripts/lint.sh in CI). Each
// analyzer lives in its own subpackage with an analysistest golden
// suite; this package only registers them and drives a run over build
// patterns. A finding can be suppressed at a specific line with
//
//	//jouleslint:ignore <analyzer> -- <why this site is exempt>
//
// which is itself auditable by grep (and budgeted by
// scripts/lintratchet.sh).
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"time"

	"fantasticjoules/internal/lint/analysis"
	"fantasticjoules/internal/lint/deadline"
	"fantasticjoules/internal/lint/determinism"
	"fantasticjoules/internal/lint/epochdiscipline"
	"fantasticjoules/internal/lint/loader"
	"fantasticjoules/internal/lint/lockdiscipline"
	"fantasticjoules/internal/lint/metricname"
	"fantasticjoules/internal/lint/scratchsafety"
	"fantasticjoules/internal/lint/unitsafety"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		deadline.Analyzer,
		determinism.Analyzer,
		epochdiscipline.Analyzer,
		lockdiscipline.Analyzer,
		metricname.Analyzer,
		scratchsafety.Analyzer,
		unitsafety.Analyzer,
	}
}

// ByName returns the named analyzers in request order, erroring on
// unknown names. Repeated names are deduplicated — asking for
// "deadline,deadline" runs the analyzer once — and a registry in which two
// analyzers collide on a name is itself an error rather than a silent
// last-one-wins shadow.
func ByName(names []string) ([]*analysis.Analyzer, error) {
	all := Analyzers()
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		if _, dup := byName[a.Name]; dup {
			return nil, fmt.Errorf("lint: analyzer name %q registered twice", a.Name)
		}
		byName[a.Name] = a
	}
	out := make([]*analysis.Analyzer, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, a)
	}
	return out, nil
}

// Finding is one reported diagnostic, positioned for printing.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// FixMessage describes the diagnostic's first suggested fix, and Fix
	// holds its edits resolved to byte offsets; both are empty when the
	// analyzer offered no mechanical rewrite.
	FixMessage string
	Fix        []FixEdit
}

// FixEdit is one resolved suggested-fix edit: replace the byte range
// [Start, End) of Filename with NewText. cmd/jouleslint -fix applies
// these directly against file contents.
type FixEdit struct {
	Filename string
	Start    int
	End      int
	NewText  string
}

// String renders the finding in the file:line:col: [analyzer] form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Stat is one timed phase of a run: a shared fact construction
// ("fact:callgraph") or an analyzer's Run total across packages.
type Stat struct {
	Name    string
	Elapsed time.Duration
}

// Run loads the patterns and applies the analyzers to every target
// package, returning the post-suppression findings sorted by position.
func Run(cfg loader.Config, analyzers []*analysis.Analyzer, patterns ...string) ([]Finding, error) {
	findings, _, err := RunWithStats(cfg, analyzers, patterns...)
	return findings, err
}

// RunWithStats is Run plus per-phase wall times: one Stat per distinct
// required fact (in first-use order) and one per analyzer (in argument
// order). scripts/lint.sh surfaces them via jouleslint -time.
func RunWithStats(cfg loader.Config, analyzers []*analysis.Analyzer, patterns ...string) ([]Finding, []Stat, error) {
	res, err := loader.Load(cfg, patterns...)
	if err != nil {
		return nil, nil, err
	}
	unit := res.Unit()

	// Precompute the shared facts up front so their cost is attributed to
	// the fact, not to whichever analyzer happens to run first.
	var stats []Stat
	seenFact := make(map[*analysis.Fact]bool)
	for _, a := range analyzers {
		for _, f := range a.Requires {
			if seenFact[f] {
				continue
			}
			seenFact[f] = true
			start := time.Now()
			if _, err := unit.FactOf(f); err != nil {
				return nil, nil, fmt.Errorf("lint: fact %s (required by %s): %v", f.Name, a.Name, err)
			}
			stats = append(stats, Stat{Name: "fact:" + f.Name, Elapsed: time.Since(start)})
		}
	}

	var findings []Finding
	perAnalyzer := make(map[string]time.Duration, len(analyzers))
	for _, pkg := range res.Packages {
		for _, a := range analyzers {
			var diags []analysis.Diagnostic
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      res.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Dep:       res.Dep,
				Unit:      unit,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			start := time.Now()
			err := a.Run(pass)
			perAnalyzer[a.Name] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
			for _, d := range analysis.FilterSuppressed(res.Fset, pkg.Syntax, a.Name, diags) {
				findings = append(findings, resolveFinding(res.Fset, a.Name, d))
			}
		}
	}
	for _, a := range analyzers {
		stats = append(stats, Stat{Name: a.Name, Elapsed: perAnalyzer[a.Name]})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
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
	return findings, stats, nil
}

// resolveFinding converts a diagnostic into a Finding, resolving the
// first suggested fix's token ranges to file byte offsets.
func resolveFinding(fset *token.FileSet, analyzer string, d analysis.Diagnostic) Finding {
	f := Finding{Analyzer: analyzer, Pos: fset.Position(d.Pos), Message: d.Message}
	if len(d.SuggestedFixes) == 0 {
		return f
	}
	fix := d.SuggestedFixes[0]
	f.FixMessage = fix.Message
	for _, e := range fix.TextEdits {
		start := fset.Position(e.Pos)
		end := fset.Position(e.End)
		f.Fix = append(f.Fix, FixEdit{Filename: start.Filename, Start: start.Offset, End: end.Offset, NewText: e.NewText})
	}
	return f
}
