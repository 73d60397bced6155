// Package scratchsafety implements the jouleslint analyzer that keeps
// sync.Pool-backed scratch values from outliving their pool cycle — the
// static generalization of the Fleet.Events() aliasing bug PR 9 fixed
// by hand.
//
// The experiments suite hands out scratch buffers from pool arenas;
// once Put returns a buffer to the pool, any retained alias is silently
// overwritten by the next cycle. This analyzer tracks
// values that flow out of a direct (*sync.Pool).Get call or out of a
// pool-getter function (any function in the unit whose body calls Get
// directly — the arena accessor pattern), follows same-function ident
// aliases, and flags the escapes that outlive the cycle:
//
//   - returning a pool value obtained through a getter call (a direct
//     Get followed by return is the accessor itself, and stays legal);
//   - storing a pool value into a struct field or package variable;
//   - sending a pool value on a channel;
//   - placing a pool value in a composite literal (the escape shape of
//     the PR 9 bug: a retained struct holding an arena buffer).
//
// When the escaping value's type has a niladic Clone method the finding
// carries a suggested fix that inserts the copy; otherwise the cure is
// copying into caller-owned memory before the escape, or annotating a
// deliberate bounded handoff with
//
//	//jouleslint:ignore scratchsafety -- <why the alias cannot outlive the cycle>
package scratchsafety

import (
	"go/ast"
	"go/types"

	"fantasticjoules/internal/lint/analysis"
	"fantasticjoules/internal/lint/callgraph"
)

// name is the analyzer name, named apart from Analyzer so the fact
// computation can use it without an initialization cycle.
const name = "scratchsafety"

// Analyzer flags pool-arena values escaping their pool cycle.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "values from sync.Pool arenas must not escape the pool cycle via returns, stores, sends, or literals",
	Requires: []*analysis.Fact{GettersFact},
	Run:      run,
}

// GettersFact is the unit-wide set of pool getters: functions that call
// (*sync.Pool).Get directly and return the obtained value — the arena
// accessor pattern. Calls to them yield tracked scratch values in every
// package of the unit. A function that merely uses a pool internally
// (gets, works, puts back) is not a getter: its return values are its
// own.
var GettersFact = &analysis.Fact{
	Name:    "poolgetters",
	Compute: computeGetters,
}

// Getters is GettersFact's value.
type Getters map[*types.Func]bool

// computeGetters scans every unit function for the get-and-return shape.
func computeGetters(u *analysis.Unit) (any, error) {
	getters := make(Getters)
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
				if returnsPoolValue(up.TypesInfo, fd) {
					getters[fn] = true
				}
			}
		}
	}
	return getters, nil
}

// returnsPoolValue reports whether some return statement of fd hands
// out a value derived from a direct pool Get in the same body.
func returnsPoolValue(info *types.Info, fd *ast.FuncDecl) bool {
	// First pass: variables assigned from a direct Get (through type
	// asserts and ident aliases, in source order).
	tracked := make(map[*types.Var]bool)
	fromGet := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if ta, ok := e.(*ast.TypeAssertExpr); ok {
			e = ast.Unparen(ta.X)
		}
		switch e := e.(type) {
		case *ast.CallExpr:
			return isPoolGet(info, e)
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok {
				return tracked[v]
			}
		}
		return false
	}
	assign := func(lhs, rhs ast.Expr) {
		if !fromGet(rhs) {
			return
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			if v, ok := objOf(info, id).(*types.Var); ok {
				tracked[v] = true
			}
		}
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch {
			case len(n.Lhs) == len(n.Rhs):
				for i := range n.Rhs {
					assign(n.Lhs[i], n.Rhs[i])
				}
			case len(n.Rhs) == 1:
				// Comma-ok type assert: v, ok := pool.Get().(*T).
				assign(n.Lhs[0], n.Rhs[0])
			}
		case *ast.ValueSpec:
			for i, rhs := range n.Values {
				if i < len(n.Names) && fromGet(rhs) {
					if v, ok := info.Defs[n.Names[i]].(*types.Var); ok {
						tracked[v] = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if fromGet(res) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// isPoolGet reports whether the call is (*sync.Pool).Get.
func isPoolGet(info *types.Info, call *ast.CallExpr) bool {
	fn := callgraph.StaticCallee(info, call)
	if fn == nil || fn.Name() != "Get" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// origin classifies how a tracked value was obtained.
type origin int

const (
	// direct marks values from a (*sync.Pool).Get call in this very
	// function: the accessor itself, allowed to return them.
	direct origin = iota
	// derived marks values from a getter call or alias: scratch on loan,
	// never allowed to escape.
	derived
)

// run checks every function of the package independently: tracking is
// intra-procedural, the getter set is the interprocedural ingredient.
func run(pass *analysis.Pass) error {
	gv, err := pass.Unit.FactOf(GettersFact)
	if err != nil {
		return err
	}
	getters := gv.(Getters)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, getters, fd)
		}
	}
	return nil
}

// checkFunc tracks pool values through one function body in source
// order and reports escapes.
func checkFunc(pass *analysis.Pass, getters Getters, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	tracked := make(map[*types.Var]origin)

	// trackedExpr resolves an expression to its tracked origin, seeing
	// through parens and type assertions.
	trackedExpr := func(e ast.Expr) (origin, bool) {
		e = ast.Unparen(e)
		if ta, ok := e.(*ast.TypeAssertExpr); ok {
			e = ast.Unparen(ta.X)
		}
		switch e := e.(type) {
		case *ast.CallExpr:
			if isPoolGet(info, e) {
				return direct, true
			}
			if fn := callgraph.StaticCallee(info, e); fn != nil && getters[fn] {
				return derived, true
			}
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok {
				if o, ok := tracked[v]; ok {
					return o, true
				}
			}
		}
		return 0, false
	}

	report := func(pos ast.Node, what string, escapee ast.Expr) {
		d := analysis.Diagnostic{
			Pos:     pos.Pos(),
			Message: "pool-arena scratch value " + render(escapee) + " escapes the pool cycle via " + what,
		}
		if fix, ok := cloneFix(info, escapee); ok {
			d.SuggestedFixes = []analysis.SuggestedFix{fix}
		}
		pass.Report(d)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// First record fresh tracked values, then check stores: for
			// aligned assignments each LHS pairs with its RHS; a comma-ok
			// type assert pairs its single RHS with the first LHS.
			rhsFor := n.Rhs
			if len(n.Lhs) != len(n.Rhs) {
				rhsFor = nil
				if len(n.Rhs) == 1 {
					rhsFor = n.Rhs[:1]
				}
			}
			for i, rhs := range rhsFor {
				o, ok := trackedExpr(rhs)
				if !ok {
					continue
				}
				switch lhs := ast.Unparen(n.Lhs[i]).(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						continue
					}
					if v, ok := objOf(info, lhs).(*types.Var); ok {
						if v.Parent() == pass.Pkg.Scope() {
							report(n, "package-variable store", rhs)
							continue
						}
						tracked[v] = o
					}
				case *ast.SelectorExpr:
					if sel, ok := info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
						report(n, "field store", rhs)
					} else if _, ok := info.Uses[lhs.Sel].(*types.Var); ok {
						report(n, "package-variable store", rhs)
					}
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range n.Values {
				o, ok := trackedExpr(rhs)
				if !ok || i >= len(n.Names) {
					continue
				}
				if v, ok := info.Defs[n.Names[i]].(*types.Var); ok {
					tracked[v] = o
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if o, ok := trackedExpr(res); ok && o == derived {
					report(n, "return", res)
				}
			}
		case *ast.SendStmt:
			if _, ok := trackedExpr(n.Value); ok {
				report(n, "channel send", n.Value)
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if _, ok := trackedExpr(val); ok {
					report(val, "composite literal", val)
				}
			}
		}
		return true
	})
}

// objOf resolves an identifier whether it is a definition (:=) or a use
// (=).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// render prints the escaping expression for the message (identifiers
// print as themselves; anything else as its shape).
func render(e ast.Expr) string {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return "(pool value)"
}

// cloneFix offers x -> x.Clone() when the escaping expression is an
// identifier whose type has a niladic single-result Clone method.
func cloneFix(info *types.Info, e ast.Expr) (analysis.SuggestedFix, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return analysis.SuggestedFix{}, false
	}
	t := info.TypeOf(id)
	if t == nil {
		return analysis.SuggestedFix{}, false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Clone")
	m, ok := obj.(*types.Func)
	if !ok {
		return analysis.SuggestedFix{}, false
	}
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return analysis.SuggestedFix{}, false
	}
	return analysis.SuggestedFix{
		Message: "copy the scratch value with " + id.Name + ".Clone() before it escapes",
		TextEdits: []analysis.TextEdit{{
			Pos:     id.Pos(),
			End:     id.End(),
			NewText: id.Name + ".Clone()",
		}},
	}, true
}
