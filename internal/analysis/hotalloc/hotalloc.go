// Package hotalloc enforces allocation discipline inside functions
// annotated with a `//spardl:hotpath` doc-comment directive — the in-place
// ReduceInto implementations, the merge kernels and the codec append
// paths whose allocation-free steady state PR 4 bought and BENCH_reduce's
// CI gate defends. The bench gate catches a regression after the fact and
// only on the benchmarked configuration; this pass points at the exact
// construct in review.
//
// Inside a hotpath function the analyzer flags:
//
//   - make/new and slice or map composite literals inside a loop:
//     per-iteration allocation belongs outside the loop or in the arena
//     (a make outside every loop is not reported: the allocs/op bench
//     gates see it);
//   - append inside a loop whose destination is provably unsized — born
//     from `var s []T`, `[]T{…}` or a cap-less make in the same function;
//     appends into arena-backed storage (chunk Idx/Val, Arena.Bytes
//     buffers, slices.Grow-n buffers, parameters) are the sanctioned
//     pattern and are not flagged;
//   - fmt.Sprintf/Sprint/Sprintln/Errorf/Appendf: always allocate (and
//     box every argument);
//   - interface boxing: passing or assigning a concrete non-pointer value
//     (struct, slice, string, numeric) into an interface-typed slot
//     allocates an escaping copy — a sparse.Chunk boxed by value is the
//     canonical offender;
//   - closures that capture outer variables: each call allocates the
//     closure (and often moves the captured variable to the heap).
//
// Arguments of panic() are exempt everywhere: panic paths are cold.
// Suppress a deliberate exception with `//spardl:alloc-ok <reason>`.
package hotalloc

import (
	"go/ast"
	"go/types"

	"spardl/internal/analysis/framework"
)

// Analyzer is the hotalloc pass.
var Analyzer = &framework.Analyzer{
	Name:     "hotalloc",
	Doc:      "flag allocation-introducing constructs (loop make/append-growth, fmt.Sprintf, interface boxing, capturing closures) in //spardl:hotpath functions",
	Suppress: "alloc-ok",
	Run:      run,
}

// HotpathFact marks a function carrying the //spardl:hotpath directive.
// hotprop imports it to treat annotated callees as reviewed allocation
// barriers even across package boundaries.
type HotpathFact struct{}

// AFact marks HotpathFact as a framework.Fact.
func (*HotpathFact) AFact() {}

// AllocatingFmt lists the fmt functions that always allocate their result
// (hotprop reads it too).
var AllocatingFmt = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf": true, "Appendf": true, "Append": true, "Appendln": true,
}

func run(pass *framework.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !framework.HasDirective(fd.Doc, "hotpath") {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				pass.ExportObjectFact(fn, &HotpathFact{})
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	unsized := collectUnsized(info, fd)

	type frame struct {
		node   ast.Node
		inLoop bool
		inLit  *ast.FuncLit
	}
	var stack []frame
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		f := frame{node: n}
		if len(stack) > 0 {
			f = frame{node: n, inLoop: stack[len(stack)-1].inLoop, inLit: stack[len(stack)-1].inLit}
		}
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			f.inLoop = true
		case *ast.FuncLit:
			f.inLit = n
			checkCapture(pass, info, fd, n)
		}
		stack = append(stack, f)

		inLoop := f.inLoop
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, info, fd, n, inLoop, unsized)
		case *ast.CompositeLit:
			if inLoop && allocatingLiteral(info, n) && !framework.EnclosedByPanic(info, fd.Body, n) {
				pass.Reportf(n.Pos(), "composite literal allocates on every loop iteration; hoist it or draw from the arena")
			}
		case *ast.AssignStmt:
			checkAssignBoxing(pass, info, fd, n)
		case *ast.ValueSpec:
			checkValueSpecBoxing(pass, info, fd, n)
		}
		return true
	})
}

// checkCapture flags closures that capture variables of the enclosing
// function: every evaluation of the literal allocates a closure object
// (and usually moves the captured variable to the heap). Capture-free
// literals compile to a static funcval and are fine.
func checkCapture(pass *framework.Pass, info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) {
	reported := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || reported {
			return !reported
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.Parent() == nil {
			return true
		}
		// Captured: declared in the enclosing function (not package scope,
		// not inside the literal itself, not a field).
		if v.IsField() || v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the literal's own parameter or local
		}
		if v.Pos() < fd.Pos() || v.Pos() > fd.End() {
			return true // not from this function
		}
		if framework.EnclosedByPanic(info, fd.Body, lit) {
			return false
		}
		reported = true
		pass.Reportf(lit.Pos(), "closure captures %s; each evaluation allocates the closure and heap-moves its captures", v.Name())
		return false
	})
}

// collectUnsized finds local slice variables born without capacity: `var s
// []T`, `s := []T{}`, or a cap-less make. Appending to those in a loop is
// guaranteed growth.
func collectUnsized(info *types.Info, fd *ast.FuncDecl) map[*types.Var]bool {
	unsized := make(map[*types.Var]bool)
	mark := func(id *ast.Ident) {
		if v, ok := info.Defs[id].(*types.Var); ok {
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				unsized[v] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gen, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gen.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				switch r := ast.Unparen(rhs).(type) {
				case *ast.CompositeLit:
					if len(r.Elts) == 0 {
						mark(id)
					}
				case *ast.CallExpr:
					if framework.IsBuiltin(info, r, "make") && len(r.Args) < 3 {
						mark(id)
					}
				}
			}
		}
		return true
	})
	return unsized
}

func checkCall(pass *framework.Pass, info *types.Info, fd *ast.FuncDecl, call *ast.CallExpr, inLoop bool, unsized map[*types.Var]bool) {
	switch {
	case framework.IsBuiltin(info, call, "make"), framework.IsBuiltin(info, call, "new"):
		if inLoop && !framework.EnclosedByPanic(info, fd.Body, call) {
			pass.Reportf(call.Pos(), "%s allocates on every loop iteration; hoist it or draw from the arena",
				ast.Unparen(call.Fun).(*ast.Ident).Name)
		}
		return
	case framework.IsBuiltin(info, call, "append"):
		if inLoop {
			checkAppend(pass, info, call, unsized)
		}
		return
	}
	if fn := framework.Callee(info, call); fn != nil && fn.Pkg() != nil &&
		fn.Pkg().Path() == "fmt" && AllocatingFmt[fn.Name()] {
		if !framework.EnclosedByPanic(info, fd.Body, call) {
			pass.Reportf(call.Pos(), "fmt.%s allocates (result and boxed arguments); keep formatting off the hot path", fn.Name())
		}
		return
	}
	checkCallBoxing(pass, info, fd, call)
}

func checkAppend(pass *framework.Pass, info *types.Info, call *ast.CallExpr, unsized map[*types.Var]bool) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !unsized[v] {
		return
	}
	pass.Reportf(call.Pos(),
		"append to %s grows an unsized slice inside a loop; pre-size it (make with capacity, slices.Grow, or arena storage)", id.Name)
}

// allocatingLiteral reports whether the composite literal heap-allocates:
// slice and map literals always do; struct and array literals are not
// judged.
func allocatingLiteral(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// sigOf resolves the signature of a call through named function, method,
// or function-typed value; nil for conversions and builtins.
func sigOf(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func checkCallBoxing(pass *framework.Pass, info *types.Info, fd *ast.FuncDecl, call *ast.CallExpr) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: T(x) with T an interface type boxes x.
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && len(call.Args) == 1 {
			reportBoxing(pass, info, fd, call.Args[0])
		}
		return
	}
	sig := sigOf(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if call.Ellipsis.IsValid() {
				pt = last // s... passes the slice itself; no per-element boxing
			} else {
				pt = last.(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); isIface {
			reportBoxing(pass, info, fd, arg)
		}
	}
}

func checkAssignBoxing(pass *framework.Pass, info *types.Info, fd *ast.FuncDecl, assign *ast.AssignStmt) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, rhs := range assign.Rhs {
		lt, ok := info.Types[assign.Lhs[i]]
		if !ok {
			continue
		}
		if _, isIface := lt.Type.Underlying().(*types.Interface); isIface {
			reportBoxing(pass, info, fd, rhs)
		}
	}
}

func checkValueSpecBoxing(pass *framework.Pass, info *types.Info, fd *ast.FuncDecl, vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		if i >= len(vs.Values) {
			break
		}
		v, ok := info.Defs[name].(*types.Var)
		if !ok {
			continue
		}
		if _, isIface := v.Type().Underlying().(*types.Interface); isIface {
			reportBoxing(pass, info, fd, vs.Values[i])
		}
	}
}

// reportBoxing flags arg when converting its static type into an interface
// allocates: concrete non-pointer-shaped values (structs, slices, strings,
// numerics, arrays) are copied to the heap; pointers, maps, channels and
// funcs fit the interface word.
func reportBoxing(pass *framework.Pass, info *types.Info, fd *ast.FuncDecl, arg ast.Expr) {
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	if b, isBasic := t.Underlying().(*types.Basic); isBasic && b.Kind() == types.UntypedNil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return
	}
	if framework.EnclosedByPanic(info, fd.Body, arg) {
		return
	}
	pass.Reportf(arg.Pos(),
		"%s value boxed into an interface allocates an escaping copy; pass a pointer or keep the concrete type", types.TypeString(t, types.RelativeTo(pass.Pkg)))
}
