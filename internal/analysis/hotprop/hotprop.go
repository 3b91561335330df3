// Package hotprop closes the blindspot hotalloc leaves open: hotalloc
// audits only function bodies that carry the //spardl:hotpath directive,
// so a hot function calling an innocent-looking helper that allocates two
// frames down passes vet silently. hotprop propagates an "allocates"
// summary bottom-up over the call graph — transitively, across package
// boundaries via facts — and flags every static call from a hotpath
// function to a non-hotpath callee that may allocate.
//
// The propagation barrier is the //spardl:hotpath annotation itself: an
// annotated callee has had its body reviewed by hotalloc's rules, so calls
// into it are trusted regardless of what it calls on its cold paths
// (arena slow paths are the canonical example: Arena.Get allocates a slab
// when the epoch's storage runs out, and that is the reviewed design).
//
// A function "allocates" when its body (including nested function
// literals) contains make/new, a slice or map composite literal, an &T{}
// literal, or a call into fmt's allocating family — or when it statically
// calls a non-hotpath function that allocates. Arguments of panic() are
// exempt, as everywhere in spardl-vet. Dynamic (interface) calls are not
// propagated: resolving them by class hierarchy would flag every hot call
// through comm.Endpoint, drowning the signal.
//
// Suppress a deliberate exception with `//spardl:hotprop-ok <reason>`.
package hotprop

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"spardl/internal/analysis/callgraph"
	"spardl/internal/analysis/framework"
	"spardl/internal/analysis/hotalloc"
)

// Analyzer is the hotprop pass.
var Analyzer = &framework.Analyzer{
	Name:     "hotprop",
	Doc:      "flag //spardl:hotpath functions statically calling non-hotpath callees that (transitively, cross-package via facts) allocate",
	Suppress: "hotprop-ok",
	Requires: []*framework.Analyzer{callgraph.Analyzer, hotalloc.Analyzer},
	Run:      run,
}

// AllocatesFact marks a non-hotpath function that may allocate, with a
// human-readable witness chain ending at the concrete allocation site.
type AllocatesFact struct {
	Witness string
}

// AFact marks AllocatesFact as a framework.Fact.
func (*AllocatesFact) AFact() {}

func run(pass *framework.Pass) (any, error) {
	cg := pass.ResultOf[callgraph.Analyzer].(*callgraph.Result)

	hot := make(map[*types.Func]bool)
	witness := make(map[*types.Func]string)
	for _, fn := range cg.Funcs {
		node := cg.Nodes[fn]
		if framework.HasDirective(node.Decl.Doc, "hotpath") {
			hot[fn] = true
		}
		if w := directAllocWitness(pass, node.Decl); w != "" {
			witness[fn] = w
		}
	}

	// calleeAlloc resolves whether g may allocate: in-package from the
	// fixpoint state, cross-package from its exported fact.
	calleeAlloc := func(g *types.Func) string {
		if g.Pkg() != nil && g.Pkg().Path() == pass.Pkg.Path() {
			return witness[g]
		}
		var f AllocatesFact
		if pass.ImportObjectFact(g, &f) {
			return f.Witness
		}
		return ""
	}
	calleeHot := func(g *types.Func) bool {
		if g.Pkg() != nil && g.Pkg().Path() == pass.Pkg.Path() {
			return hot[g]
		}
		return pass.ImportObjectFact(g, &hotalloc.HotpathFact{})
	}

	// Fixpoint: pull allocation summaries up through static in-package
	// calls until nothing changes (handles recursion conservatively).
	for changed := true; changed; {
		changed = false
		for _, fn := range cg.Funcs {
			if witness[fn] != "" {
				continue
			}
			for _, c := range cg.Nodes[fn].Calls {
				if c.Dynamic || c.Callee == fn || calleeHot(c.Callee) {
					continue
				}
				if w := calleeAlloc(c.Callee); w != "" {
					witness[fn] = fmt.Sprintf("calls %s: %s", c.Callee.Name(), w)
					changed = true
					break
				}
			}
		}
	}

	// Report hot→cold allocating edges at their call sites.
	for _, fn := range cg.Funcs {
		if !hot[fn] {
			continue
		}
		for _, c := range cg.Nodes[fn].Calls {
			if c.Dynamic || calleeHot(c.Callee) {
				continue
			}
			if w := calleeAlloc(c.Callee); w != "" {
				pass.Reportf(c.Site.Pos(),
					"hot path calls allocating non-hotpath function %s (%s); hoist the allocation or annotate the callee //spardl:hotpath after review",
					c.Callee.Name(), w)
			}
		}
	}

	// Export summaries so importing packages see through this one.
	for _, fn := range cg.Funcs {
		if w := witness[fn]; w != "" && !hot[fn] {
			pass.ExportObjectFact(fn, &AllocatesFact{Witness: w})
		}
	}
	return nil, nil
}

// directAllocWitness returns a witness for the first construct in fd's
// body that heap-allocates, or "" if none. panic() arguments are exempt.
func directAllocWitness(pass *framework.Pass, fd *ast.FuncDecl) string {
	info := pass.TypesInfo
	var w string
	describe := func(n ast.Node, what string) string {
		pos := pass.Fset.Position(n.Pos())
		return fmt.Sprintf("%s at %s:%d", what, filepath.Base(pos.Filename), pos.Line)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if w != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case framework.IsBuiltin(info, n, "make"), framework.IsBuiltin(info, n, "new"):
				if !framework.EnclosedByPanic(info, fd.Body, n) {
					w = describe(n, ast.Unparen(n.Fun).(*ast.Ident).Name)
				}
			default:
				if g := framework.Callee(info, n); g != nil && g.Pkg() != nil &&
					g.Pkg().Path() == "fmt" && hotalloc.AllocatingFmt[g.Name()] &&
					!framework.EnclosedByPanic(info, fd.Body, n) {
					w = describe(n, "fmt."+g.Name())
				}
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				if !framework.EnclosedByPanic(info, fd.Body, n) {
					w = describe(n, "composite literal")
				}
			}
		case *ast.UnaryExpr:
			if lit, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND &&
				!framework.EnclosedByPanic(info, fd.Body, lit) {
				w = describe(n, "&composite literal")
			}
		}
		return w == ""
	})
	return w
}
