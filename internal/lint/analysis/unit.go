package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// UnitPackage is one target package of an analyzed load, as the
// whole-program facts see it: syntax, types, and type-checking results.
// It mirrors the per-package fields of Pass, so a fact computation reads
// a package exactly the way an analyzer's Run does.
type UnitPackage struct {
	// PkgPath is the package's import path.
	PkgPath string
	// Files are the package's parsed source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checking results.
	TypesInfo *types.Info
}

// Unit is the whole analyzed load: every target package of one driver
// run, sharing one file set. It is the substrate of interprocedural
// analysis — a Fact computed over the Unit (the call graph, the epoch
// compute region, the arena-getter set) sees across package boundaries,
// where a Pass sees one package.
//
// The driver builds one Unit per run and hands it to every Pass; facts
// are computed once and memoized, so ten analyzers requiring the call
// graph pay for one construction.
type Unit struct {
	// Fset maps token positions to file locations for every package.
	Fset *token.FileSet
	// Packages holds the target packages in load (dependency) order.
	Packages []*UnitPackage
	// Dep returns a transitively imported package by path (nil when the
	// package is not in the import closure), as Pass.Dep does.
	Dep func(path string) *types.Package

	mu        sync.Mutex
	facts     map[*Fact]factEntry
	computing map[*Fact]bool
}

type factEntry struct {
	val any
	err error
}

// Fact is one memoized whole-unit computation, the jouleslint analogue of
// go/analysis result dependencies: an analyzer lists the facts it needs
// in Requires, and FactOf returns the shared, lazily computed value. A
// fact may itself request other facts (the epoch info requests the call
// graph); cycles are reported as errors.
type Fact struct {
	// Name identifies the fact in errors and in the driver's timing
	// report.
	Name string
	// Compute builds the fact's value for a unit. It runs at most once
	// per unit.
	Compute func(*Unit) (any, error)
}

// NewUnit assembles a unit from already-loaded packages.
func NewUnit(fset *token.FileSet, pkgs []*UnitPackage, dep func(string) *types.Package) *Unit {
	return &Unit{
		Fset:      fset,
		Packages:  pkgs,
		Dep:       dep,
		facts:     make(map[*Fact]factEntry),
		computing: make(map[*Fact]bool),
	}
}

// FactOf returns the memoized value of f for this unit, computing it on
// first request. The driver runs passes sequentially, so a fact computes
// exactly once; a recursive self-request is an error rather than a
// deadlock.
func (u *Unit) FactOf(f *Fact) (any, error) {
	if u == nil {
		return nil, fmt.Errorf("analysis: no unit attached to the pass (fact %q needs a whole-unit driver)", f.Name)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if e, ok := u.facts[f]; ok {
		return e.val, e.err
	}
	if u.computing[f] {
		return nil, fmt.Errorf("analysis: fact %q depends on itself", f.Name)
	}
	u.computing[f] = true
	// Release the lock across Compute so a fact may request other facts
	// (the epoch info pulls the call graph); the computing set turns a
	// cyclic request into an error instead of a re-entrant deadlock.
	u.mu.Unlock()
	val, err := f.Compute(u)
	u.mu.Lock()
	delete(u.computing, f)
	u.facts[f] = factEntry{val: val, err: err}
	return val, err
}

// PackageFor returns the unit package whose file set contains pos, or
// nil. Interprocedural analyzers use it to map a call-graph node back to
// the syntax tree (and suppression comments) of its home package.
func (u *Unit) PackageFor(pkg *types.Package) *UnitPackage {
	for _, p := range u.Packages {
		if p.Pkg == pkg {
			return p
		}
	}
	return nil
}

// FuncDeclOf resolves a declared function or method object to its
// *ast.FuncDecl and home package within the unit, or (nil, nil) when the
// function is declared outside the unit (a dependency) or has no body.
func (u *Unit) FuncDeclOf(fn *types.Func) (*ast.FuncDecl, *UnitPackage) {
	if fn == nil || fn.Pkg() == nil {
		return nil, nil
	}
	up := u.PackageFor(fn.Pkg())
	if up == nil {
		return nil, nil
	}
	for _, f := range up.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if up.TypesInfo.Defs[fd.Name] == fn {
				return fd, up
			}
		}
	}
	return nil, nil
}
