// Package netdeadline enforces the deadline discipline PR 9 installed by
// hand across the tcpnet rendezvous/mesh code: a conn or listener with no
// deadline blocks forever in Read, Write or Accept when the peer wedges —
// the hang class that turns one lost worker into a hung fleet. The pass is
// scoped to packages named "tcpnet" (the only place raw conns live).
//
// The rule is receiver-sensitive and intraprocedural. A local variable
// assigned from a call that returns a net.Conn- or net.Listener-shaped
// value (Accept, dialRetry, net.Listen) is born with no deadline, and the
// first thing done with it afterwards must be SetDeadline, SetReadDeadline
// or SetWriteDeadline on that variable — through a type assertion if need
// be, as in ln.(*net.TCPListener).SetDeadline. Close, the address
// accessors and returning the value (the caller's assignment is a birth of
// its own) may come first; any other use — I/O, passing it on, storing it
// — is reported where it happens. A deadline on a different conn, or on
// the listener that accepted this one, covers nothing.
//
// What happens after the first deadline is not tracked: the data plane
// clears it before registering a conn and is unblocked by force-closing
// the conn instead.
//
// Suppress a deliberate exception with `//spardl:netdeadline-ok <reason>`
// on the reported line, naming who sets the deadline instead.
package netdeadline

import (
	"go/ast"
	"go/token"
	"go/types"

	"spardl/internal/analysis/framework"
)

// Analyzer is the netdeadline pass.
var Analyzer = &framework.Analyzer{
	Name:     "netdeadline",
	Doc:      "flag a conn or listener born in a tcpnet-style package (Accept, dialRetry, net.Listen) and used before a deadline is set on that value",
	Suppress: "netdeadline-ok",
	Run:      run,
}

// deadlinePkgs scopes the pass, by package name so fixtures participate.
var deadlinePkgs = map[string]bool{"tcpnet": true}

var (
	deadlineSetters = map[string]bool{"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true}
	// nonBlocking are the methods that may run on a value with no deadline.
	nonBlocking = map[string]bool{"Close": true, "Addr": true, "LocalAddr": true, "RemoteAddr": true}
)

func run(pass *framework.Pass) error {
	if !deadlinePkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd.Body)
			}
		}
	}
	return nil
}

// birth is where a tracked variable last received a fresh conn or listener.
type birth struct {
	end  token.Pos // uses are judged from the end of the assignment on
	line int
	from string // the producing call, for the message
}

// checkFunc walks one declared function (nested literals included: the
// mesh goroutines are literals) in source order, judging the first use
// after every birth.
func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	unset := make(map[*types.Var]birth)
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			if v, from := born(info, n); v != nil {
				unset[v] = birth{end: n.End(), line: pass.Fset.Position(n.Pos()).Line, from: from}
			}
		case *ast.Ident:
			v, _ := info.Uses[n].(*types.Var)
			b, tracked := unset[v]
			if !tracked || n.Pos() < b.end {
				return true
			}
			switch method := methodCalledOn(stack); {
			case nonBlocking[method] || returned(stack):
				// still born, still waiting for its deadline
			case deadlineSetters[method]:
				delete(unset, v)
			default:
				delete(unset, v)
				pass.Reportf(n.Pos(),
					"%s is used with no deadline set on it since %s returned it at line %d; call %s.SetDeadline first (a deadline on another conn, or on the listener that accepted this one, does not cover it) so a wedged peer cannot hang the fleet",
					v.Name(), b.from, b.line, v.Name())
			}
		}
		return true
	})
}

// born reports the variable an assignment gives a fresh conn or listener:
// `v, … := f(…)` or `v, … = f(…)` where f's first result is conn- or
// listener-shaped.
func born(info *types.Info, assign *ast.AssignStmt) (*types.Var, string) {
	if len(assign.Rhs) != 1 {
		return nil, ""
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	fn := framework.Callee(info, call)
	id, ok := assign.Lhs[0].(*ast.Ident)
	if fn == nil || !ok {
		return nil, ""
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() == 0 || !(framework.HasMethods(res.At(0).Type(), "Read", "Write", "SetDeadline") ||
		framework.HasMethods(res.At(0).Type(), "Accept", "Close", "Addr")) {
		return nil, ""
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, _ := obj.(*types.Var)
	return v, fn.Name()
}

// methodCalledOn returns m when the identifier on top of the stack is the
// receiver of a call x.m(…), looking through parentheses and type
// assertions (x.(*net.TCPListener).m(…)); "" otherwise.
func methodCalledOn(stack []ast.Node) string {
	i := len(stack) - 2
	for i >= 0 && isWrapper(stack[i]) {
		i--
	}
	if i < 1 {
		return ""
	}
	sel, ok := stack[i].(*ast.SelectorExpr)
	if !ok || sel.X != stack[i+1] {
		return ""
	}
	if call, ok := stack[i-1].(*ast.CallExpr); ok && call.Fun == sel {
		return sel.Sel.Name
	}
	return ""
}

func isWrapper(n ast.Node) bool {
	switch n.(type) {
	case *ast.ParenExpr, *ast.TypeAssertExpr:
		return true
	}
	return false
}

// returned reports whether the identifier on top of the stack is itself a
// result of a return statement.
func returned(stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	_, ok := stack[len(stack)-2].(*ast.ReturnStmt)
	return ok
}
