package callgraph_test

import (
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"fantasticjoules/internal/lint/callgraph"
	"fantasticjoules/internal/lint/loader"
)

// loadGraph builds the call graph of the golden tree.
func loadGraph(t *testing.T) *callgraph.Graph {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	res, err := loader.Load(loader.Config{
		Dir: filepath.Join(dir, "src"),
		Env: []string{"GOPATH=" + dir, "GO111MODULE=off", "GOFLAGS=", "GOWORK=off"},
	}, "example.com/cg/...")
	if err != nil {
		t.Fatal(err)
	}
	g, err := res.Unit().FactOf(callgraph.Fact)
	if err != nil {
		t.Fatal(err)
	}
	return g.(*callgraph.Graph)
}

// funcNamed finds a unit function by its qualified suffix, e.g.
// "cg.Root" or "cg.Fast.Step".
func funcNamed(t *testing.T, g *callgraph.Graph, name string) *types.Func {
	t.Helper()
	for _, fn := range g.Funcs {
		if shortName(fn) == name {
			return fn
		}
	}
	t.Fatalf("no function %q in graph (have %v)", name, names(g.Funcs))
	return nil
}

// shortName renders pkg.Func or pkg.Recv.Method.
func shortName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		name += rt.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}

func names(fns []*types.Func) []string {
	out := make([]string, len(fns))
	for i, fn := range fns {
		out[i] = shortName(fn)
	}
	return out
}

func TestEdges(t *testing.T) {
	g := loadGraph(t)
	root := funcNamed(t, g, "cg.Root")
	var got []string
	for _, e := range g.Edges(root) {
		s := shortName(e.Callee)
		if e.Dynamic {
			s += " (dynamic)"
		}
		got = append(got, s)
	}
	sort.Strings(got)
	want := []string{
		"cg.Fast.Step",           // concrete method call
		"cg.Fast.Step (dynamic)", // CHA resolution of st.Step()
		"cg.Slow.Step (dynamic)", // CHA resolution of st.Step()
		"cg.direct",
		"cg.indirectValue",
		"cg.leaf", // called from the closure, attributed to Root
		"sub.Helper",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Root edges:\n got %v\nwant %v", got, want)
	}
}

func TestReachability(t *testing.T) {
	g := loadGraph(t)
	root := funcNamed(t, g, "cg.Root")
	reached := g.Reach([]*types.Func{root})

	var got []string
	for fn := range reached {
		got = append(got, shortName(fn))
	}
	sort.Strings(got)
	want := []string{
		"cg.Fast.Step", "cg.Root", "cg.Slow.Step", "cg.direct",
		"cg.indirectValue", "cg.leaf", "sub.Helper", "sub.clamp",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reachable set:\n got %v\nwant %v", got, want)
	}
	if reached[funcNamed(t, g, "cg.unreached")] {
		t.Fatal("unreached should not be reachable from Root")
	}
}

func TestDeterministicOrder(t *testing.T) {
	a := loadGraph(t)
	b := loadGraph(t)
	if got, want := names(a.Funcs), names(b.Funcs); !reflect.DeepEqual(got, want) {
		t.Fatalf("Funcs order differs across loads:\n%v\n%v", got, want)
	}
}
