// Package callgraph is the shared call-graph pass of spardl-vet: one
// package's declared functions and the statically resolved calls each
// makes. Calls through an interface are recorded and marked Dynamic, not
// resolved to implementations — every dependent skips them (resolving them
// by class hierarchy would flag every hot call through comm.Endpoint).
// Interprocedural analyzers (hotprop, locksafe) list it in Requires and
// read the per-package Result through Pass.ResultOf instead of each
// re-walking the AST.
//
// The graph is deliberately flat: calls inside function literals are
// attributed to the enclosing declared function, because the runtime
// invariants spardl-vet checks (allocation on a hot path, blocking under a
// lock, I/O without a deadline) hold wherever the enclosing function's
// execution reaches.
package callgraph

import (
	"go/ast"
	"go/types"

	"spardl/internal/analysis/framework"
)

// Analyzer is the shared pass. It reports nothing and exports no facts;
// its value is the Result handed to dependents.
var Analyzer = &framework.Analyzer{
	Name:     "callgraph",
	Doc:      "shared pass: per-package call graph of statically resolved calls (no findings of its own)",
	Suppress: "callgraph-ok",
	Run:      run,
}

// Result is the package's call graph.
type Result struct {
	// Nodes holds one entry per function or method declared in the
	// package; calls made inside nested function literals appear on the
	// declaring function's node.
	Nodes map[*types.Func]*Node
	// Funcs is Nodes' key set in source order, for deterministic walks.
	Funcs []*types.Func
}

// Node is one declared function with its outgoing calls in source order.
type Node struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Calls []Call
}

// Call is one call site.
type Call struct {
	Site *ast.CallExpr
	// Callee is the statically-resolved function: the concrete callee for
	// direct calls, the interface method for dynamic ones. Calls through
	// function-typed values have no Callee and do not appear here.
	Callee *types.Func
	// Dynamic marks a call through an interface value; its concrete
	// callees are unknown to this pass.
	Dynamic bool
	// Go marks a `go f(…)` site.
	Go bool
}

func run(pass *framework.Pass) (any, error) {
	r := &Result{Nodes: make(map[*types.Func]*Node)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &Node{Fn: fn, Decl: fd}
			collectCalls(pass.TypesInfo, fd.Body, node)
			r.Nodes[fn] = node
			r.Funcs = append(r.Funcs, fn)
		}
	}
	return r, nil
}

// collectCalls walks body recording every call with a resolvable callee,
// tagging go launch sites.
func collectCalls(info *types.Info, body ast.Node, node *Node) {
	goSites := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(*ast.GoStmt); ok {
			goSites[s.Call] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := framework.Callee(info, call)
		if fn == nil {
			return true
		}
		node.Calls = append(node.Calls, Call{
			Site:    call,
			Callee:  fn,
			Dynamic: isInterfaceMethod(fn),
			Go:      goSites[call],
		})
		return true
	})
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}
