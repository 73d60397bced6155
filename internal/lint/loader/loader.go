// Package loader type-checks Go packages for the jouleslint analyzers
// without importing golang.org/x/tools.
//
// It shells out to `go list -deps -json` to resolve build patterns — in
// module mode for the real tree, in GOPATH mode for the golden-test
// trees under testdata — then parses and type-checks every package of
// the dependency closure in the topological order go list guarantees,
// resolving imports through each package's ImportMap (which is how the
// vendored GOROOT packages keep their source import paths working).
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"

	"fantasticjoules/internal/lint/analysis"
)

// Config controls where and how packages are resolved.
type Config struct {
	// Dir is the working directory for the go tool (the module root, or
	// a testdata src tree). Empty means the current directory.
	Dir string
	// Env entries are appended to the process environment for the go
	// tool, e.g. GOPATH/GO111MODULE overrides for testdata trees.
	Env []string
}

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the package's import path as reported by go list.
	PkgPath string
	// Target reports whether the package was named by the load patterns
	// (rather than pulled in as a dependency); analyzers run only on
	// target packages.
	Target bool
	// Syntax holds the parsed files, in go list's file order.
	Syntax []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo holds type-checking results; populated for target
	// packages only.
	TypesInfo *types.Info
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	ImportMap  map[string]string
	Incomplete bool
	Error      *struct{ Err string }
}

// Result is a loaded dependency closure.
type Result struct {
	// Fset is the file set shared by every loaded package.
	Fset *token.FileSet
	// Packages holds the closure in dependency order; targets last.
	Packages []*Package

	byPath map[string]*types.Package
}

// Dep returns the type-checked package with the given import path, or
// nil; it is the Pass.Dep hook handed to analyzers.
func (r *Result) Dep(path string) *types.Package { return r.byPath[path] }

// Unit assembles the analysis.Unit for this load: the whole-program view
// the interprocedural facts (call graph, epoch info) are computed over.
// Target packages appear in load order, sharing the result's file set.
func (r *Result) Unit() *analysis.Unit {
	pkgs := make([]*analysis.UnitPackage, 0, len(r.Packages))
	for _, p := range r.Packages {
		pkgs = append(pkgs, &analysis.UnitPackage{
			PkgPath:   p.PkgPath,
			Files:     p.Syntax,
			Pkg:       p.Types,
			TypesInfo: p.TypesInfo,
		})
	}
	return analysis.NewUnit(r.Fset, pkgs, r.Dep)
}

// Load resolves the patterns and type-checks their dependency closure.
// Type errors in a target package are returned as errors — an analyzer
// run over a package that does not compile would be unreliable — while
// errors in dependencies are tolerated as long as every target still
// type-checks.
func Load(cfg Config, patterns ...string) (*Result, error) {
	pkgs, err := goList(cfg, patterns)
	if err != nil {
		return nil, err
	}
	res := &Result{Fset: token.NewFileSet(), byPath: make(map[string]*types.Package)}
	for _, lp := range pkgs {
		if lp.ImportPath == "unsafe" {
			res.byPath["unsafe"] = types.Unsafe
			continue
		}
		if lp.Error != nil && !lp.DepOnly && !lp.Standard {
			return nil, fmt.Errorf("loader: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		target := !lp.DepOnly && !lp.Standard
		pkg, err := typecheck(res, lp, target)
		if err != nil {
			if target {
				return nil, err
			}
			continue // broken dependency; targets importing it will fail
		}
		res.byPath[lp.ImportPath] = pkg.Types
		if target {
			res.Packages = append(res.Packages, pkg)
		}
	}
	if len(res.Packages) == 0 {
		return nil, fmt.Errorf("loader: no packages matched %v", patterns)
	}
	return res, nil
}

// goList runs `go list -e -deps -json` and decodes the package stream.
func goList(cfg Config, patterns []string) ([]listPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	cmd.Env = append(cmd.Env, cfg.Env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loader: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("loader: decode go list output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// typecheck parses and type-checks one package against the already-loaded
// closure in res.
func typecheck(res *Result, lp listPackage, target bool) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(res.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("loader: %s: %v", lp.ImportPath, err)
		}
		files = append(files, f)
	}
	var info *types.Info
	if target {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
	}
	var firstErr error
	conf := types.Config{
		Importer:    mapImporter{res: res, importMap: lp.ImportMap},
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(lp.ImportPath, res.Fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("loader: type-check %s: %v", lp.ImportPath, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("loader: type-check %s: %v", lp.ImportPath, err)
	}
	return &Package{
		PkgPath:   lp.ImportPath,
		Target:    target,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// mapImporter resolves imports against the closure loaded so far,
// applying the importing package's ImportMap first (vendored GOROOT
// dependencies appear in source under their unvendored paths).
type mapImporter struct {
	res       *Result
	importMap map[string]string
}

// Import implements types.Importer.
func (m mapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := m.res.byPath[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("loader: package %q not in dependency closure", path)
}
