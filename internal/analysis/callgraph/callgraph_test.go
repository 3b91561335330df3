package callgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"testing"

	"spardl/internal/analysis/callgraph"
	"spardl/internal/analysis/framework"
)

const src = `package p

type T struct{}

func (T) method() {}

type I interface{ dyn() }

func helper() {}

func caller(t T, i I) {
	helper()
	t.method()
	func() { nested() }()
	go spawned()
	defer deferred()
	i.dyn()
	var f func()
	f()
}

func nested()   {}
func spawned()  {}
func deferred() {}
`

// graph type-checks src and returns its call graph through the ordinary
// Requires/ResultOf route.
func graph(t *testing.T) *callgraph.Result {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	var got *callgraph.Result
	probe := &framework.Analyzer{
		Name:     "probe",
		Requires: []*framework.Analyzer{callgraph.Analyzer},
		Run: func(pass *framework.Pass) (any, error) {
			got = pass.ResultOf[callgraph.Analyzer].(*callgraph.Result)
			return nil, nil
		},
	}
	pkg := &framework.Package{Path: "p", Name: "p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, TypesInfo: info}
	if _, err := framework.Run([]*framework.Package{pkg}, probe); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCallEdges(t *testing.T) {
	g := graph(t)

	var names []string
	for _, fn := range g.Funcs {
		names = append(names, fn.Name())
	}
	if want := []string{"method", "helper", "caller", "nested", "spawned", "deferred"}; !slices.Equal(names, want) {
		t.Errorf("Funcs = %v, want the declarations in source order %v", names, want)
	}

	var caller *callgraph.Node
	for fn, node := range g.Nodes {
		if fn.Name() == "caller" {
			caller = node
		}
	}
	if caller == nil {
		t.Fatal("no node for caller")
	}
	type edge struct {
		callee       string
		dynamic, goS bool
	}
	var got []edge
	for _, c := range caller.Calls {
		got = append(got, edge{c.Callee.Name(), c.Dynamic, c.Go})
	}
	want := []edge{
		{callee: "helper"}, // static call
		{callee: "method"}, // method call on a concrete receiver
		{callee: "nested"}, // inside a function literal: attributed to caller
		{callee: "spawned", goS: true},
		{callee: "deferred"},
		{callee: "dyn", dynamic: true}, // through an interface: recorded, not resolved
		// f() goes through a function value: no callee, no edge
	}
	if !slices.Equal(got, want) {
		t.Errorf("caller's edges:\n got %+v\nwant %+v", got, want)
	}
	if len(g.Nodes) != len(g.Funcs) {
		t.Errorf("%d nodes for %d declared functions: a function literal must not get a node of its own", len(g.Nodes), len(g.Funcs))
	}
}
