// Package poisonorder machine-checks the failure-cascade discipline the
// live backends (comm, livenet, tcpnet) rely on for root-cause reporting:
//
//  1. Record-before-hook: on any path where a failure cause reaches a
//     backend poison hook (fabric.Poison, an endpoint's Abort, a stream
//     lane's onPanic-style function field), the cause must be recorded
//     first — stored into a field, or passed to a callee that records its
//     cause argument (comm.Cause.Note, peer.fail). Firing the hook
//     first lets the cascade of secondary errors (closed queues, dead
//     sockets) overwrite the root cause, which is exactly the confusion
//     deterministic chaos runs exist to avoid.
//
//  2. No stream-waiting hooks: the function handed to comm.NewStreamLane
//     runs on the stream goroutine itself, so it must never reach
//     StreamLane.Shutdown or StreamLane.Join — those wait for the stream
//     to drain and would deadlock from inside it (the PR 8 bug class: the
//     runtime's lane hook must sever the link, never Abort the endpoint).
//
// Cause values are parameters named cause/reason/fault/msg (of string,
// error or any type) and variables assigned from recover(). Analysis is
// per function scope — a function literal is its own scope, because hooks
// passed as closures run on other goroutines. A fact carries "records its
// cause" across packages (comm.Cause.Note, called from every backend);
// rule 2 needs none, since only comm builds stream lanes.
//
// Suppress a deliberate exception with `//spardl:poisonorder-ok <reason>`.
package poisonorder

import (
	"go/ast"
	"go/types"
	"regexp"

	"spardl/internal/analysis/callgraph"
	"spardl/internal/analysis/framework"
)

// Analyzer is the poisonorder pass.
var Analyzer = &framework.Analyzer{
	Name:     "poisonorder",
	Doc:      "enforce record-cause-before-poison-hook ordering and forbid stream-lane hooks that wait for the stream (Abort from the lane goroutine deadlocks)",
	Suppress: "poisonorder-ok",
	Requires: []*framework.Analyzer{callgraph.Analyzer},
	Run:      run,
}

// RecordsCauseFact marks a function that durably records its cause
// parameter (stores it into a field, or forwards it to another recorder)
// — calling it with the cause satisfies rule 1's "recorded first".
type RecordsCauseFact struct{}

// AFact marks RecordsCauseFact as a framework.Fact.
func (*RecordsCauseFact) AFact() {}

// backendPkgs names the packages whose failure paths carry this
// discipline, matched by package name so fixtures participate.
var backendPkgs = map[string]bool{
	"comm":    true,
	"livenet": true,
	"tcpnet":  true,
}

// hookNames seeds the poison-hook set; hookFieldRE matches calls through
// function-typed fields or variables (l.onPanic(r)).
var (
	hookNames   = map[string]bool{"Poison": true, "poisonWith": true, "abortConns": true, "Abort": true}
	hookFieldRE = regexp.MustCompile(`(?i)panic|poison|abort|hook`)
	causeRE     = regexp.MustCompile(`(?i)^(cause|reason|fault|msg)$`)
)

const commPkg = "spardl/internal/comm"

func run(pass *framework.Pass) (any, error) {
	if !backendPkgs[pass.Pkg.Name()] {
		return nil, nil
	}
	cg := pass.ResultOf[callgraph.Analyzer].(*callgraph.Result)

	records := computeRecorders(pass, cg)
	waits := computeWaiters(cg)

	// Export before reporting, so ordering mistakes in this package cannot
	// hide facts from importers.
	for _, fn := range cg.Funcs {
		if records[fn] {
			pass.ExportObjectFact(fn, &RecordsCauseFact{})
		}
	}

	for _, fn := range cg.Funcs {
		decl := cg.Nodes[fn].Decl
		forEachScope(decl, func(scope scopeInfo) {
			checkRecordBeforeHook(pass, records, scope)
		})
		checkStreamHooks(pass, waits, decl)
	}
	return nil, nil
}

// scopeInfo is one function scope: a declared function or one function
// literal, with nested literals excluded (they are scopes of their own).
type scopeInfo struct {
	params *ast.FieldList
	body   *ast.BlockStmt
}

// forEachScope visits the declared function's scope and every nested
// function-literal scope.
func forEachScope(decl *ast.FuncDecl, visit func(scopeInfo)) {
	if decl.Body == nil {
		return
	}
	visit(scopeInfo{params: decl.Type.Params, body: decl.Body})
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			visit(scopeInfo{params: lit.Type.Params, body: lit.Body})
		}
		return true
	})
}

// scopeNodes visits every node belonging to the scope's body directly,
// skipping nested function literals (scopes of their own).
func scopeNodes(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// causeVars collects the scope's cause values: matching-name parameters
// of string/error/any type and recover() results.
func causeVars(info *types.Info, scope scopeInfo) map[*types.Var]bool {
	causes := make(map[*types.Var]bool)
	if scope.params != nil {
		for _, field := range scope.params.List {
			for _, name := range field.Names {
				v, ok := info.Defs[name].(*types.Var)
				if !ok || !causeRE.MatchString(v.Name()) {
					continue
				}
				if isCauseType(v.Type()) {
					causes[v] = true
				}
			}
		}
	}
	scopeNodes(scope.body, func(n ast.Node) {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok || !framework.IsBuiltin(info, call, "recover") {
			return
		}
		for _, lhs := range assign.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if v, ok := info.Defs[id].(*types.Var); ok {
					causes[v] = true
				}
			}
		}
	})
	return causes
}

func isCauseType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Interface:
		return true // any, error, custom error-ish interfaces
	}
	return false
}

// isHookCall classifies call as a poison-hook invocation: a seed-named
// callee, or a call through a hook-named function value.
func isHookCall(pass *framework.Pass, call *ast.CallExpr) bool {
	if fn := framework.Callee(pass.TypesInfo, call); fn != nil {
		return hookNames[fn.Name()]
	}
	// Function-value call: match the field/variable name.
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	default:
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return false
	}
	if _, isSig := tv.Type.Underlying().(*types.Signature); !isSig {
		return false
	}
	return hookFieldRE.MatchString(name)
}

// usesVar reports whether any identifier under n resolves to a var in set.
func usesVar(info *types.Info, n ast.Node, set map[*types.Var]bool) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && set[v] {
				found = true
			}
		}
		return !found
	})
	return found
}

// calleeRecords reports whether call's resolved callee records its cause
// argument (locally computed or imported fact).
func calleeRecords(pass *framework.Pass, records map[*types.Func]bool, call *ast.CallExpr) bool {
	fn := framework.Callee(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	if records[fn] {
		return true
	}
	return pass.ImportObjectFact(fn, &RecordsCauseFact{})
}

// checkRecordBeforeHook enforces rule 1 inside one scope: before the first
// poison-hook call, every live cause value must have been recorded.
func checkRecordBeforeHook(pass *framework.Pass, records map[*types.Func]bool, scope scopeInfo) {
	info := pass.TypesInfo
	causes := causeVars(info, scope)
	if len(causes) == 0 {
		return
	}
	var hook *ast.CallExpr
	scopeNodes(scope.body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isHookCall(pass, call) {
			return
		}
		if hook == nil || call.Pos() < hook.Pos() {
			hook = call
		}
	})
	if hook == nil {
		return
	}
	// The hook itself records when its callee stores the cause it is
	// handed (poisonWith(cause), Abort(fmt.Sprintf(…, r))).
	if calleeRecords(pass, records, hook) && usesVar(info, hook, causes) {
		return
	}
	recorded := false
	scopeNodes(scope.body, func(n ast.Node) {
		if recorded || n.Pos() >= hook.Pos() {
			return
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			// x.field = <expr mentioning a cause value>
			for i, lhs := range n.Lhs {
				if _, isSel := ast.Unparen(lhs).(*ast.SelectorExpr); !isSel {
					continue
				}
				if i < len(n.Rhs) && usesVar(info, n.Rhs[i], causes) {
					recorded = true
				}
				if len(n.Rhs) == 1 && usesVar(info, n.Rhs[0], causes) {
					recorded = true
				}
			}
		case *ast.CallExpr:
			if n != hook && calleeRecords(pass, records, n) && usesVar(info, n, causes) {
				recorded = true
			}
		}
	})
	if !recorded {
		pass.Reportf(hook.Pos(),
			"poison hook fires before the failure cause is recorded; store the cause (or pass it to a recording callee) first, or the cascade's secondary errors mask the root cause")
	}
}

// computeRecorders finds functions that durably record a cause parameter:
// a field store whose RHS mentions the parameter, or forwarding it to
// another recorder. Fixpoint over in-package static calls.
func computeRecorders(pass *framework.Pass, cg *callgraph.Result) map[*types.Func]bool {
	info := pass.TypesInfo
	records := make(map[*types.Func]bool)
	causeParams := make(map[*types.Func]map[*types.Var]bool)
	for _, fn := range cg.Funcs {
		decl := cg.Nodes[fn].Decl
		params := make(map[*types.Var]bool)
		if decl.Type.Params != nil {
			for _, field := range decl.Type.Params.List {
				for _, name := range field.Names {
					if v, ok := info.Defs[name].(*types.Var); ok &&
						causeRE.MatchString(v.Name()) && isCauseType(v.Type()) {
						params[v] = true
					}
				}
			}
		}
		causeParams[fn] = params
		if len(params) == 0 {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range assign.Lhs {
				if _, isSel := ast.Unparen(lhs).(*ast.SelectorExpr); !isSel {
					continue
				}
				rhs := assign.Rhs[0]
				if len(assign.Lhs) == len(assign.Rhs) {
					rhs = assign.Rhs[i]
				}
				if usesVar(info, rhs, params) {
					records[fn] = true
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range cg.Funcs {
			if records[fn] || len(causeParams[fn]) == 0 {
				continue
			}
			for _, c := range cg.Nodes[fn].Calls {
				if c.Dynamic {
					continue
				}
				forwards := records[c.Callee] || pass.ImportObjectFact(c.Callee, &RecordsCauseFact{})
				if forwards && usesVar(info, c.Site, causeParams[fn]) {
					records[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return records
}

// computeWaiters finds functions that transitively reach
// comm.StreamLane.Shutdown or Join through static calls.
func computeWaiters(cg *callgraph.Result) map[*types.Func]bool {
	waits := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, fn := range cg.Funcs {
			if waits[fn] {
				continue
			}
			for _, c := range cg.Nodes[fn].Calls {
				if c.Dynamic || c.Go {
					continue // another goroutine waiting is fine
				}
				if isStreamWait(c.Callee) || waits[c.Callee] {
					waits[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return waits
}

// isStreamWait reports whether fn is comm.StreamLane.Shutdown or Join.
func isStreamWait(fn *types.Func) bool {
	named := framework.ReceiverNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == commPkg && named.Obj().Name() == "StreamLane" &&
		(fn.Name() == "Shutdown" || fn.Name() == "Join")
}

// checkStreamHooks enforces rule 2: arguments handed to comm.NewStreamLane
// must not reach StreamLane.Shutdown/Join.
func checkStreamHooks(pass *framework.Pass, waits map[*types.Func]bool, decl *ast.FuncDecl) {
	if decl.Body == nil {
		return
	}
	info := pass.TypesInfo
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := framework.Callee(info, call)
		if !framework.IsPkgFunc(fn, commPkg, "NewStreamLane") {
			return true
		}
		for _, arg := range call.Args {
			switch a := ast.Unparen(arg).(type) {
			case *ast.FuncLit:
				if g := litReachesWait(pass, waits, a); g != "" {
					pass.Reportf(arg.Pos(),
						"stream-lane hook reaches %s, which waits for the stream goroutine that runs the hook — deadlock; sever the link instead (comm.Link.Sever closes conns/queues without waiting), never Abort", g)
				}
			default:
				var id *ast.Ident
				switch a := a.(type) {
				case *ast.Ident:
					id = a
				case *ast.SelectorExpr:
					id = a.Sel
				}
				if id == nil {
					continue
				}
				if g, ok := info.Uses[id].(*types.Func); ok && (waits[g] || isStreamWait(g)) {
					pass.Reportf(arg.Pos(),
						"stream-lane hook %s waits for the stream goroutine that runs it — deadlock; sever the link instead (comm.Link.Sever closes conns/queues without waiting), never Abort", g.Name())
				}
			}
		}
		return true
	})
}

// litReachesWait reports the name of the first stream-waiting callee a
// hook literal's body statically calls, or "".
func litReachesWait(pass *framework.Pass, waits map[*types.Func]bool, lit *ast.FuncLit) string {
	info := pass.TypesInfo
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		g := framework.Callee(info, call)
		if g == nil {
			return true
		}
		if waits[g] || isStreamWait(g) {
			found = g.Name()
		}
		return true
	})
	return found
}
