package framework

import (
	"go/ast"
	"go/types"
)

// Callee resolves the called function (or method) of call, or nil for
// builtins, conversions and calls through function-typed variables.
// Instantiated generic functions and methods are normalized to their
// declared origin, so they match the *types.Func objects analyzers index
// from the package's own declarations.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn != nil {
		fn = fn.Origin()
	}
	return fn
}

// IsBuiltin reports whether call invokes the named builtin (append, make…).
func IsBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// ReceiverNamed returns the named type of fn's receiver (through one
// pointer), or nil for package-level functions.
func ReceiverNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// HasMethods reports whether t's method set (through a pointer for
// concrete types) carries every named method — how analyzers recognize a
// conn (Read, Write, SetDeadline) or a listener without naming net types.
func HasMethods(t types.Type, names ...string) bool {
	ms := types.NewMethodSet(t)
	if _, isPtr := t.(*types.Pointer); !isPtr && !types.IsInterface(t) {
		ms = types.NewMethodSet(types.NewPointer(t))
	}
	for _, name := range names {
		if ms.Lookup(nil, name) == nil {
			return false
		}
	}
	return true
}
