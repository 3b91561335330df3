// Package arenasafe enforces the sparse.Arena ownership discipline at the
// source level. Arena chunks live inside epoch-recycled slabs: storage is
// reclaimed two Resets after it was handed out, and Recycle is the
// caller's assertion that no reference survives. The rules (documented on
// sparse.Arena) are easy to state and easy to break a PR later:
//
//   - a chunk obtained from an Arena must not outlive the epoch — flagged
//     when an arena-derived chunk is stored into a struct field or a
//     package-level variable, sent on a channel, or captured by a
//     goroutine launched in the same function;
//   - a chunk must not be used after it was recycled — flagged when any
//     statement after `a.Recycle(c)` in the same block still mentions c,
//     including a second Recycle (which panics at runtime).
//
// The analysis is intraprocedural and tracks plain local variables only: a
// chunk that reaches a field through append, an index store or a
// composite literal (core's undo log, TopkDSA's gather items — both
// legitimate, both released inside the epoch) is not followed, and neither
// is a chunk nobody recycles.
//
// Suppress a deliberate exception with `//spardl:arena-ok <reason>`.
package arenasafe

import (
	"go/ast"
	"go/types"

	"spardl/internal/analysis/framework"
)

const sparsePkg = "spardl/internal/sparse"

// Analyzer is the arenasafe pass.
var Analyzer = &framework.Analyzer{
	Name:     "arenasafe",
	Doc:      "enforce sparse.Arena chunk ownership: no escapes past the epoch (field, package variable, channel, goroutine), no use after Recycle, no double Recycle",
	Suppress: "arena-ok",
	Run:      run,
}

func run(pass *framework.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil, nil
}

// chunkSet holds the function's arena-derived *sparse.Chunk locals.
type chunkSet map[*types.Var]bool

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	chunks := make(chunkSet)

	// Pass 1: find arena-derived chunk vars (x := a.Get(n), kept, dropped :=
	// a.TopKChunk(...), including assignment to named results).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !arenaChunkCall(info, call) {
				continue
			}
			// Map results to LHS idents: single call with tuple results
			// covers all LHS; element-wise assignment covers position i.
			lhs := assign.Lhs
			if len(assign.Rhs) == 1 && len(lhs) > 1 {
				for _, l := range lhs {
					trackLHS(info, chunks, l)
				}
			} else if i < len(lhs) {
				trackLHS(info, chunks, lhs[i])
			}
		}
		return true
	})

	// Pass 2: flag escapes.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAssignEscape(pass, info, chunks, n)
		case *ast.SendStmt:
			if v := chunkUse(info, chunks, n.Value); v != nil {
				pass.Reportf(n.Value.Pos(),
					"arena chunk %s escapes on a channel send; receivers outlive the epoch that owns its storage", v.Name())
			}
		case *ast.GoStmt:
			checkGoEscape(pass, info, chunks, n)
		}
		return true
	})

	// Pass 3: statement-ordered scan per block for use-after-Recycle.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			checkBlock(pass, info, n.List)
		case *ast.CaseClause:
			checkBlock(pass, info, n.Body)
		case *ast.CommClause:
			checkBlock(pass, info, n.Body)
		}
		return true
	})
}

func trackLHS(info *types.Info, chunks chunkSet, lhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if v, ok := obj.(*types.Var); ok && framework.IsNamedType(v.Type(), sparsePkg, "Chunk") {
		chunks[v] = true
	}
}

// isArenaMethod reports whether fn is the named method of *sparse.Arena
// ("" matches any method).
func isArenaMethod(fn *types.Func, name string) bool {
	recv := framework.ReceiverNamed(fn)
	return recv != nil && recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == sparsePkg &&
		recv.Obj().Name() == "Arena" && (name == "" || fn.Name() == name)
}

// arenaChunkCall reports whether call invokes a chunk-producing method on
// *sparse.Arena.
func arenaChunkCall(info *types.Info, call *ast.CallExpr) bool {
	fn := framework.Callee(info, call)
	if !isArenaMethod(fn, "") {
		return false
	}
	res := fn.Type().(*types.Signature).Results()
	return res.Len() > 0 && framework.IsNamedType(res.At(0).Type(), sparsePkg, "Chunk")
}

// isRecycleCall reports whether call is <arena>.Recycle(x) and returns the
// recycled variable when x is a plain identifier.
func isRecycleCall(info *types.Info, call *ast.CallExpr) (*types.Var, bool) {
	if !isArenaMethod(framework.Callee(info, call), "Recycle") || len(call.Args) != 1 {
		return nil, false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil, true
	}
	v, _ := info.Uses[id].(*types.Var)
	return v, true
}

// chunkUse resolves expr to a tracked chunk variable, if it is one.
func chunkUse(info *types.Info, chunks chunkSet, expr ast.Expr) *types.Var {
	if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
		if v, ok := info.Uses[id].(*types.Var); ok && chunks[v] {
			return v
		}
	}
	return nil
}

func checkAssignEscape(pass *framework.Pass, info *types.Info, chunks chunkSet, assign *ast.AssignStmt) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, rhs := range assign.Rhs {
		v := chunkUse(info, chunks, rhs)
		if v == nil {
			continue
		}
		switch l := ast.Unparen(assign.Lhs[i]).(type) {
		case *ast.SelectorExpr:
			pass.Reportf(rhs.Pos(),
				"arena chunk %s escapes into field %s; struct state outlives the epoch that owns the chunk's storage", v.Name(), l.Sel.Name)
		case *ast.Ident:
			if obj, ok := info.Uses[l].(*types.Var); ok && obj.Parent() == obj.Pkg().Scope() {
				pass.Reportf(rhs.Pos(),
					"arena chunk %s escapes into package variable %s and outlives the epoch", v.Name(), l.Name)
			}
		}
	}
}

func checkGoEscape(pass *framework.Pass, info *types.Info, chunks chunkSet, g *ast.GoStmt) {
	ast.Inspect(g.Call, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && chunks[v] {
				pass.Reportf(id.Pos(),
					"arena chunk %s is shared with a goroutine; the arena owner contract is one worker goroutine at a time", v.Name())
			}
		}
		return true
	})
}

// checkBlock walks one statement list in order, tracking Recycle calls and
// flagging later uses of the recycled chunk in the same list.
func checkBlock(pass *framework.Pass, info *types.Info, stmts []ast.Stmt) {
	recycledAt := make(map[*types.Var]bool)
	for _, stmt := range stmts {
		// Flag uses of already-recycled vars anywhere in this statement.
		if len(recycledAt) > 0 {
			ast.Inspect(stmt, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := info.Uses[id].(*types.Var)
				if !ok || !recycledAt[v] {
					return true
				}
				if call, isSecond := recycleOf(info, stmt, id); isSecond {
					pass.Reportf(call.Pos(),
						"%s is recycled twice in this block; the second Recycle panics at runtime", v.Name())
				} else {
					pass.Reportf(id.Pos(),
						"%s is used after Recycle; its storage may already back another chunk", v.Name())
				}
				delete(recycledAt, v) // one report per variable per block
				return true
			})
		}
		if expr, ok := stmt.(*ast.ExprStmt); ok {
			if call, ok := expr.X.(*ast.CallExpr); ok {
				if v, isRecycle := isRecycleCall(info, call); isRecycle && v != nil {
					recycledAt[v] = true
				}
			}
		}
	}
}

// recycleOf reports whether the use of id inside stmt is itself the
// argument of a Recycle call (a double recycle rather than a plain use).
func recycleOf(info *types.Info, stmt ast.Stmt, id *ast.Ident) (*ast.CallExpr, bool) {
	var found *ast.CallExpr
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found != nil {
			return true
		}
		if _, isRecycle := isRecycleCall(info, call); isRecycle &&
			len(call.Args) == 1 && ast.Unparen(call.Args[0]) == id {
			found = call
		}
		return true
	})
	return found, found != nil
}
