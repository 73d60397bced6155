// Package callgraph builds a static call graph over a whole jouleslint
// load, shared by the interprocedural analyzers through the analysis
// Fact mechanism.
//
// The graph has one node per declared function or method in the unit.
// Calls inside function literals are attributed to the enclosing
// declaration, so everything a function transitively calls includes the
// bodies of the closures it builds. Call edges are resolved two ways:
//
//   - statically, through the type-checker's Uses/Selections maps, for
//     direct calls and concrete-receiver method calls;
//   - by class-hierarchy analysis for interface method calls: every
//     named non-interface type in the unit whose method set satisfies
//     the interface contributes an edge to its implementation, which is
//     sound for the sim packages because their dynamic types are all
//     declared in-tree.
//
// Calls through function-typed values (fields, parameters, variables)
// produce no edge; analyzers that must be conservative about them can
// inspect call sites themselves. Node and edge order is deterministic
// (package load order, then source order), so diagnostics derived from
// the graph are stable across runs.
package callgraph

import (
	"go/ast"
	"go/types"

	"fantasticjoules/internal/lint/analysis"
)

// Edge is one resolved call: Caller's body contains a call that may
// dispatch to Callee. Dynamic marks edges resolved by class-
// hierarchy analysis rather than a direct static reference.
type Edge struct {
	Caller  *types.Func
	Callee  *types.Func
	Dynamic bool
}

// Graph is the static call graph of one analyzed unit.
type Graph struct {
	// Funcs lists every declared function and method of the unit in
	// deterministic (package, then source) order.
	Funcs []*types.Func

	out map[*types.Func][]Edge
}

// Edges returns fn's outgoing call edges in source order (nil for
// functions declared outside the unit or without a body).
func (g *Graph) Edges(fn *types.Func) []Edge { return g.out[fn] }

// Reach returns the set of functions reachable from the roots through
// zero or more call edges, roots included.
func (g *Graph) Reach(roots []*types.Func) map[*types.Func]bool {
	reached := make(map[*types.Func]bool, len(roots))
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		if r == nil || reached[r] {
			continue
		}
		reached[r] = true
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range g.out[fn] {
			if reached[e.Callee] {
				continue
			}
			reached[e.Callee] = true
			queue = append(queue, e.Callee)
		}
	}
	return reached
}

// Fact is the memoized whole-unit call graph; analyzers list it in
// Requires and read it with Of.
var Fact = &analysis.Fact{
	Name:    "callgraph",
	Compute: func(u *analysis.Unit) (any, error) { return Build(u), nil },
}

// Of returns the unit's call graph through the fact mechanism.
func Of(pass *analysis.Pass) (*Graph, error) {
	v, err := pass.Unit.FactOf(Fact)
	if err != nil {
		return nil, err
	}
	return v.(*Graph), nil
}

// Build constructs the call graph for a unit directly (tests use it;
// analyzers go through Of so the work is shared).
func Build(u *analysis.Unit) *Graph {
	g := &Graph{out: make(map[*types.Func][]Edge)}
	impls := implementers(u)
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
				g.Funcs = append(g.Funcs, fn)
				g.out[fn] = collectEdges(up.TypesInfo, impls, fn, fd.Body)
			}
		}
	}
	return g
}

// collectEdges resolves every call in body (including calls inside
// nested function literals) to edges attributed to caller.
func collectEdges(info *types.Info, impls *implSet, caller *types.Func, body *ast.BlockStmt) []Edge {
	var edges []Edge
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if callee, ok := info.Uses[fun].(*types.Func); ok {
				edges = append(edges, Edge{Caller: caller, Callee: callee})
			}
		case *ast.SelectorExpr:
			sel, ok := info.Selections[fun]
			if !ok {
				// Package-qualified call: pkg.F(...).
				if callee, ok := info.Uses[fun.Sel].(*types.Func); ok {
					edges = append(edges, Edge{Caller: caller, Callee: callee})
				}
				break
			}
			if sel.Kind() != types.MethodVal {
				break // method expression / field of func type: no static target
			}
			callee, ok := sel.Obj().(*types.Func)
			if !ok {
				break
			}
			if types.IsInterface(sel.Recv()) {
				for _, impl := range impls.lookup(sel.Recv().Underlying().(*types.Interface), callee) {
					edges = append(edges, Edge{Caller: caller, Callee: impl, Dynamic: true})
				}
				break
			}
			edges = append(edges, Edge{Caller: caller, Callee: callee})
		}
		return true
	})
	return edges
}

// StaticCallee resolves a call's single static target: a direct call, a
// package-qualified call, or a concrete-receiver method call. It
// returns nil for builtins, conversions, function values, and interface
// dispatch. Analyzers share it so their notion of "who is called here"
// matches the graph's.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal || types.IsInterface(sel.Recv()) {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// implSet indexes the unit's named concrete types for class-hierarchy
// resolution of interface method calls.
type implSet struct {
	types []types.Type // T and *T for every named non-interface type, deterministic order
}

// implementers collects every named non-interface type declared in the
// unit, in package order then scope-name order (Scope.Names sorts).
func implementers(u *analysis.Unit) *implSet {
	s := &implSet{}
	for _, up := range u.Packages {
		if up.Pkg == nil {
			continue
		}
		scope := up.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			s.types = append(s.types, named, types.NewPointer(named))
		}
	}
	return s
}

// lookup returns, for every unit type implementing iface, its concrete
// method corresponding to the interface method m, deduplicated (a
// value-receiver method satisfies the interface through both T and *T).
func (s *implSet) lookup(iface *types.Interface, m *types.Func) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	for _, t := range s.types {
		if !types.Implements(t, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok || seen[fn] {
			continue
		}
		seen[fn] = true
		out = append(out, fn)
	}
	return out
}
