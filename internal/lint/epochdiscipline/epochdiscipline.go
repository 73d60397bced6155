// Package epochdiscipline implements the jouleslint analyzer that keeps
// memo-cell staleness from being reintroduced: any write to state the
// registered experiments artifacts read must be followed by an epoch
// bump so the dependent cells recompute.
//
// The analyzer derives three interprocedural sets from the shared call
// graph:
//
//   - compute roots: functions that pass a compute closure to an epoch
//     cell's get method (a method named get on a receiver whose method
//     set carries invalidate). The closures are what registered
//     artifacts run to produce their values.
//   - R, the compute region: everything reachable from the roots. A
//     field of an epoch-owning type (one with a Perturb, Invalidate, or
//     invalidate method) that is read inside R is artifact input —
//     "tracked".
//   - bump-reaching functions: everything from which a Perturb,
//     Invalidate, or invalidate method is reachable.
//
// A write to a tracked field is then flagged unless it is itself inside
// R (computes may fill caches), inside a bump method or a constructor
// (New*/new*/init — the cells don't exist yet), or lexically followed
// in the same function by a call that reaches a bump: the approximation
// of "post-dominated by an epoch bump" that matches how the suite's
// mutators are written (mutate, then Perturb/Invalidate).
//
// Deliberate exceptions carry
//
//	//jouleslint:ignore epochdiscipline -- <why staleness cannot result>
package epochdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"fantasticjoules/internal/lint/analysis"
	"fantasticjoules/internal/lint/callgraph"
)

// name is the analyzer name, named apart from Analyzer so the fact
// computation can use it without an initialization cycle.
const name = "epochdiscipline"

// Analyzer flags epoch-owner field writes that no epoch bump follows.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "writes to fields read by registered artifacts must be followed by a Perturb/Invalidate epoch bump",
	Requires: []*analysis.Fact{callgraph.Fact, InfoFact},
	Run:      run,
}

// InfoFact is the memoized epoch-discipline view of the unit.
var InfoFact = &analysis.Fact{
	Name:    "epochinfo",
	Compute: computeInfo,
}

// Info is InfoFact's value.
type Info struct {
	// InR marks the compute region: functions reachable from compute
	// roots.
	InR map[*types.Func]bool
	// Tracked holds the epoch-owner fields read inside R.
	Tracked map[*types.Var]bool
	// BumpReaching marks functions from which an epoch bump method is
	// reachable (bump methods included).
	BumpReaching map[*types.Func]bool
}

// bumpNames are the method names that advance an epoch.
var bumpNames = map[string]bool{"Perturb": true, "Invalidate": true, "invalidate": true}

// computeInfo builds the three sets.
func computeInfo(u *analysis.Unit) (any, error) {
	gv, err := u.FactOf(callgraph.Fact)
	if err != nil {
		return nil, err
	}
	g := gv.(*callgraph.Graph)
	info := &Info{
		Tracked:      make(map[*types.Var]bool),
		BumpReaching: make(map[*types.Func]bool),
	}

	// Bump methods, and reverse reachability toward them.
	var bumps []*types.Func
	for _, fn := range g.Funcs {
		if isBumpMethod(fn) {
			bumps = append(bumps, fn)
		}
	}
	rev := make(map[*types.Func][]*types.Func)
	for _, fn := range g.Funcs {
		for _, e := range g.Edges(fn) {
			rev[e.Callee] = append(rev[e.Callee], e.Caller)
		}
	}
	queue := append([]*types.Func(nil), bumps...)
	for _, b := range bumps {
		info.BumpReaching[b] = true
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, caller := range rev[fn] {
			if !info.BumpReaching[caller] {
				info.BumpReaching[caller] = true
				queue = append(queue, caller)
			}
		}
	}

	// Compute roots: enclosing declarations of closures handed to epoch
	// cell get methods.
	var roots []*types.Func
	for _, up := range u.Packages {
		if up.TypesInfo == nil {
			continue
		}
		for _, f := range up.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := up.TypesInfo.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				isRoot := false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || !isCellGet(up.TypesInfo, call) {
						return true
					}
					for _, arg := range call.Args {
						if _, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							isRoot = true
							return false
						}
					}
					return true
				})
				if isRoot {
					roots = append(roots, fn)
				}
			}
		}
	}
	info.InR = g.Reach(roots)

	// Tracked fields: epoch-owner fields read inside R. Writes (selector
	// as assignment target) do not count as reads.
	for fn := range info.InR {
		fd, up := u.FuncDeclOf(fn)
		if fd == nil || fd.Body == nil {
			continue
		}
		writes := writeTargets(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || writes[sel] {
				return true
			}
			if fieldVar := ownerField(up.TypesInfo, sel); fieldVar != nil {
				info.Tracked[fieldVar] = true
			}
			return true
		})
	}
	return info, nil
}

// isBumpMethod reports whether fn is a method named like an epoch bump.
func isBumpMethod(fn *types.Func) bool {
	if !bumpNames[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isCellGet reports whether the call is an epoch cell's get: a method
// named get whose receiver's method set includes invalidate.
func isCellGet(info *types.Info, call *ast.CallExpr) bool {
	fn := callgraph.StaticCallee(info, call)
	if fn == nil || fn.Name() != "get" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return hasBumpMethod(sig.Recv().Type())
}

// hasBumpMethod reports whether t's (pointer) method set carries an
// epoch bump method.
func hasBumpMethod(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if bumpNames[ms.At(i).Obj().Name()] {
			return true
		}
	}
	return false
}

// ownerField resolves a selector to the field object it reads when the
// base value's type is an epoch owner; nil otherwise.
func ownerField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	fieldVar, ok := s.Obj().(*types.Var)
	if !ok {
		return nil
	}
	if !hasBumpMethod(s.Recv()) {
		return nil
	}
	return fieldVar
}

// writeTargets collects the selector expressions that are assignment or
// inc/dec targets within body.
func writeTargets(body *ast.BlockStmt) map[*ast.SelectorExpr]bool {
	out := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					out[sel] = true
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				out[sel] = true
			}
		}
		return true
	})
	return out
}

// run flags tracked-field writes in this package that no bump follows.
func run(pass *analysis.Pass) error {
	iv, err := pass.Unit.FactOf(InfoFact)
	if err != nil {
		return err
	}
	info := iv.(*Info)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if info.InR[fn] || isBumpMethod(fn) || isConstructor(fd) {
				continue
			}
			checkFunc(pass, info, fd)
		}
	}
	return nil
}

// isConstructor exempts New*/new*/init functions: they run before any
// cell has memoized a value.
func isConstructor(fd *ast.FuncDecl) bool {
	n := fd.Name.Name
	return n == "init" ||
		(len(n) >= 3 && (n[:3] == "New" || n[:3] == "new"))
}

// checkFunc reports tracked writes in fd not lexically followed by a
// bump-reaching call.
func checkFunc(pass *analysis.Pass, info *Info, fd *ast.FuncDecl) {
	tinfo := pass.TypesInfo
	type write struct {
		pos   token.Pos
		owner string
		field string
	}
	var writes []write
	record := func(sel *ast.SelectorExpr, pos token.Pos) {
		fieldVar := ownerField(tinfo, sel)
		if fieldVar == nil || !info.Tracked[fieldVar] {
			return
		}
		owner := "epoch owner"
		if s, ok := tinfo.Selections[sel]; ok {
			owner = ownerName(s.Recv())
		}
		writes = append(writes, write{pos: pos, owner: owner, field: fieldVar.Name()})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					record(sel, n.Pos())
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				record(sel, n.Pos())
			}
		}
		return true
	})
	for _, w := range writes {
		if bumpFollows(tinfo, info, fd, w.pos) {
			continue
		}
		pass.Reportf(w.pos, "write to %s field %s (artifact input) is not followed by an epoch bump (Perturb/Invalidate); memo cells may serve stale values", w.owner, w.field)
	}
}

// ownerName prints the receiver type of a selection.
func ownerName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// bumpFollows reports whether some call after pos in fd's body reaches
// an epoch bump method.
func bumpFollows(tinfo *types.Info, info *Info, fd *ast.FuncDecl, pos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos {
			return true
		}
		if fn := callgraph.StaticCallee(tinfo, call); fn != nil && (info.BumpReaching[fn] || isBumpMethod(fn)) {
			found = true
			return false
		}
		return true
	})
	return found
}
