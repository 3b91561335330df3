// Package locksafe enforces mutex discipline, one package at a time:
//
//   - Leaked locks: a sync.Mutex/RWMutex Lock (or RLock) must be paired
//     with a deferred Unlock or an Unlock on every return path of the
//     function. A small abstract walker simulates the held-lock set over
//     the statement tree; paths ending in panic() are exempt (the process
//     is dying).
//   - Blocking under a lock: channel send/receive, select, WaitGroup.Wait,
//     time.Sleep, net.Conn-style Read/Write, comm.Fifo.Pop, and static
//     calls to functions of the same package that transitively block are
//     flagged while a mutex is held. Launching a goroutine does not block:
//     what a `go` statement runs is not part of its caller.
//   - One waiter: sync.Cond.Wait is flagged anywhere but comm.Fifo.Pop.
//     Cond.Wait releases the mutex it waits on, so the walker does not
//     flag it under that lock, but its function then blocks, and callers
//     in other packages see only the named blockers. This rule keeps
//     Fifo.Pop the one function in the tree that waits under a mutex.
//   - Goroutines in loops: a `go func(){…}` launched inside a loop that
//     captures a connection-like value it never closes (a failed iteration
//     leaks the socket).
//
// Nothing crosses a package boundary: a call into another package blocks
// only if it is one of the named operations above (README "does not
// catch" records a blocking wrapper elsewhere). The walker is
// deliberately conservative toward false negatives: when branches
// disagree about the held set, the unlocked view wins, so only paths that
// provably return while locked are reported.
//
// Suppress a deliberate exception with `//spardl:locksafe-ok <reason>`.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"spardl/internal/analysis/framework"
)

// Analyzer is the locksafe pass.
var Analyzer = &framework.Analyzer{
	Name:     "locksafe",
	Doc:      "flag locks without unlock on every return path, blocking operations under a held mutex, sync.Cond.Wait outside comm.Fifo.Pop, and loop goroutines capturing a conn they never close",
	Suppress: "locksafe-ok",
	Run:      run,
}

// commPkg declares Fifo, whose Pop is the one sanctioned Cond waiter.
const commPkg = "spardl/internal/comm"

func run(pass *framework.Pass) error {
	var decls []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
		checkCondWait(pass, file)
	}
	blocks := computeBlockers(pass.TypesInfo, decls)
	for _, decl := range decls {
		w := &walker{pass: pass, blocks: blocks}
		w.walkScopes(decl.Body)
		checkLoopGoroutines(pass, decl)
	}
	return nil
}

// lockCall classifies a call as a sync mutex operation; kind is "Lock",
// "RLock", "Unlock" or "RUnlock", recv is the receiver's printed form.
func lockCall(info *types.Info, call *ast.CallExpr) (kind, recv string) {
	fn := framework.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	named := framework.ReceiverNamed(fn)
	if named == nil || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return fn.Name(), types.ExprString(sel.X)
}

// unlockOf maps a lock kind to its release.
func unlockOf(kind string) string {
	if kind == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// heldLock is one currently-held mutex.
type heldLock struct {
	recv     string // printed receiver expression, e.g. "q.mu"
	release  string // "Unlock" or "RUnlock"
	pos      token.Pos
	deferred bool // a matching deferred unlock is registered
}

// walker simulates the held-lock set over one function scope. Function
// literals are walked as separate scopes: they execute elsewhere, not
// under the enclosing function's locks.
type walker struct {
	pass   *framework.Pass
	blocks map[*types.Func]bool
}

func (w *walker) walkScopes(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	held := w.walkStmts(body.List, nil)
	w.reportLeaks(held)
	// Nested literals: independent scopes.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			inner := w.walkStmts(lit.Body.List, nil)
			w.reportLeaks(inner)
			return false
		}
		return true
	})
}

func (w *walker) reportLeaks(held []heldLock) {
	for _, h := range held {
		if !h.deferred {
			w.pass.Reportf(h.pos,
				"%s.%s is not released on every path out of this function; defer the %s or unlock before each return",
				h.recv, lockKindOf(h.release), h.release)
		}
	}
}

func lockKindOf(release string) string {
	if release == "RUnlock" {
		return "RLock"
	}
	return "Lock"
}

// walkStmts interprets a statement list with the incoming held set and
// returns the held set at normal fall-through exit. Return/panic paths
// report their own leaks inline.
func (w *walker) walkStmts(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range stmts {
		held = w.walkStmt(s, held)
	}
	return held
}

func copyHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

func dropHeld(held []heldLock, recv, release string) []heldLock {
	out := held[:0:0]
	removed := false
	for _, h := range held {
		if !removed && h.recv == recv && h.release == release {
			removed = true
			continue
		}
		out = append(out, h)
	}
	return out
}

func (w *walker) walkStmt(s ast.Stmt, held []heldLock) []heldLock {
	info := w.pass.TypesInfo
	switch s := s.(type) {
	case *ast.ExprStmt:
		return w.walkExprStmt(s, held)
	case *ast.DeferStmt:
		w.checkArgs(s.Call, held)
		if kind, recv := lockCall(info, s.Call); kind == "Unlock" || kind == "RUnlock" {
			for i := range held {
				if held[i].recv == recv && held[i].release == kind {
					held[i].deferred = true
				}
			}
		}
		return held
	case *ast.ReturnStmt:
		w.checkBlockingExprs(s, held)
		for _, h := range held {
			if !h.deferred {
				w.pass.Reportf(s.Pos(),
					"return while %s is still %sed; unlock first or defer the %s at the lock site",
					h.recv, lockKindOf(h.release), h.release)
			}
		}
		return nil
	case *ast.SendStmt:
		w.reportBlocking(s.Pos(), "channel send", held)
		return held
	case *ast.AssignStmt:
		w.checkBlockingExprs(s, held)
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.checkBlockingExprs(s.Cond, held)
		thenHeld := w.walkStmts(s.Body.List, copyHeld(held))
		elseHeld := copyHeld(held)
		if s.Else != nil {
			elseHeld = w.walkStmt(s.Else, elseHeld)
		}
		return mergeHeld(thenHeld, elseHeld)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.checkBlockingExprs(s.Cond, held)
		}
		w.walkStmts(s.Body.List, copyHeld(held))
		if s.Post != nil {
			w.walkStmt(s.Post, copyHeld(held))
		}
		return held
	case *ast.RangeStmt:
		if tv, ok := info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.reportBlocking(s.Pos(), "range over channel", held)
			}
		}
		w.walkStmts(s.Body.List, copyHeld(held))
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.checkBlockingExprs(s.Tag, held)
		for _, clause := range s.Body.List {
			if c, ok := clause.(*ast.CaseClause); ok {
				w.walkStmts(c.Body, copyHeld(held))
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if c, ok := clause.(*ast.CaseClause); ok {
				w.walkStmts(c.Body, copyHeld(held))
			}
		}
		return held
	case *ast.SelectStmt:
		w.reportBlocking(s.Pos(), "select", held)
		for _, clause := range s.Body.List {
			if c, ok := clause.(*ast.CommClause); ok {
				w.walkStmts(c.Body, copyHeld(held))
			}
		}
		return held
	case *ast.GoStmt:
		// The goroutine runs elsewhere (a literal's scope is walked
		// separately); only its arguments are evaluated here.
		w.checkArgs(s.Call, held)
		return held
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	default:
		return held
	}
}

// mergeHeld merges two branch outcomes. A nil outcome (the branch
// returned) contributes nothing; when branches disagree, the unlocked
// view wins — conservative toward false negatives.
func mergeHeld(a, b []heldLock) []heldLock {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	var out []heldLock
	for _, h := range a {
		for _, g := range b {
			if h.recv == g.recv && h.release == g.release {
				m := h
				m.deferred = h.deferred || g.deferred
				out = append(out, m)
				break
			}
		}
	}
	return out
}

func (w *walker) walkExprStmt(s *ast.ExprStmt, held []heldLock) []heldLock {
	info := w.pass.TypesInfo
	if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
		switch kind, recv := lockCall(info, call); kind {
		case "Lock", "RLock":
			return append(held, heldLock{recv: recv, release: unlockOf(kind), pos: call.Pos()})
		case "Unlock", "RUnlock":
			return dropHeld(held, recv, kind)
		}
		if framework.IsBuiltin(info, call, "panic") {
			return nil // panicking exit: the held set dies with the process
		}
	}
	w.checkBlockingExprs(s, held)
	return held
}

// checkArgs scans the arguments of a go or defer call, which the caller
// evaluates at once, under its locks.
func (w *walker) checkArgs(call *ast.CallExpr, held []heldLock) {
	for _, arg := range call.Args {
		w.checkBlockingExprs(arg, held)
	}
}

// checkBlockingExprs scans an expression subtree (not crossing function
// literals) for blocking operations while locks are held.
func (w *walker) checkBlockingExprs(n ast.Node, held []heldLock) {
	if len(held) == 0 || n == nil {
		return
	}
	info := w.pass.TypesInfo
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if c.Op == token.ARROW {
				w.reportBlocking(c.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if what := w.blockingCall(info, c); what != "" {
				w.reportBlocking(c.Pos(), what, held)
			}
		}
		return true
	})
}

// blockingCall names the blocking operation a call performs, or "".
// sync.Cond.Wait is exempt here: it releases the mutex it serializes on.
func (w *walker) blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := framework.Callee(info, call)
	if fn == nil {
		return ""
	}
	if isCondWait(fn) {
		return ""
	}
	if what := intrinsicBlocker(fn); what != "" {
		return what
	}
	if w.blocks[fn] {
		return fn.Name() + " (may block)"
	}
	return ""
}

// intrinsicBlocker classifies the well-known blocking callees.
func intrinsicBlocker(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	switch {
	case fn.Pkg().Path() == "sync" && fn.Name() == "Wait":
		if named := framework.ReceiverNamed(fn); named != nil && named.Obj().Name() == "WaitGroup" {
			return "WaitGroup.Wait"
		}
	case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case isFifoPop(fn):
		return "Pop (may block)"
	case fn.Name() == "Read" || fn.Name() == "Write":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && isConnLike(sig.Recv().Type()) {
			return "net.Conn " + fn.Name()
		}
	}
	return ""
}

func isCondWait(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Wait" {
		return false
	}
	named := framework.ReceiverNamed(fn)
	return named != nil && named.Obj().Name() == "Cond"
}

func isFifoPop(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != commPkg || fn.Name() != "Pop" {
		return false
	}
	named := framework.ReceiverNamed(fn)
	return named != nil && named.Obj().Name() == "Fifo"
}

// checkCondWait flags every sync.Cond.Wait in file outside comm.Fifo.Pop.
func checkCondWait(pass *framework.Pass, file *ast.File) {
	info := pass.TypesInfo
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			fn, ok := info.Defs[n.Name].(*types.Func)
			return !ok || !isFifoPop(fn)
		case *ast.CallExpr:
			if fn := framework.Callee(info, n); fn != nil && isCondWait(fn) {
				pass.Reportf(n.Pos(),
					"sync.Cond.Wait outside comm.Fifo.Pop; a second waiter is a blocker callers in other packages cannot see — wait on a comm.Fifo instead")
			}
		}
		return true
	})
}

// isConnLike reports whether t looks like a network connection: net.Conn
// itself, an interface that embeds it, or a concrete *net.TCPConn.
func isConnLike(t types.Type) bool {
	return framework.HasMethods(t, "Read", "Write", "SetDeadline")
}

func (w *walker) reportBlocking(pos token.Pos, what string, held []heldLock) {
	if len(held) == 0 {
		return
	}
	w.pass.Reportf(pos,
		"%s while holding %s; a blocked goroutine wedges every contender — release the lock around blocking operations", what, held[len(held)-1].recv)
}

// computeBlockers marks the declared functions that may block: directly,
// or through a static call to another function of the package.
func computeBlockers(info *types.Info, decls []*ast.FuncDecl) map[*types.Func]bool {
	blocks := make(map[*types.Func]bool)
	calls := make(map[*types.Func][]*types.Func)
	for _, decl := range decls {
		fn, ok := info.Defs[decl.Name].(*types.Func)
		if !ok {
			continue
		}
		inspectCaller(decl.Body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.SendStmt, *ast.SelectStmt:
				blocks[fn] = true
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					blocks[fn] = true
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						blocks[fn] = true
					}
				}
			case *ast.CallExpr:
				if g := framework.Callee(info, n); g != nil {
					if isCondWait(g) || intrinsicBlocker(g) != "" {
						blocks[fn] = true
					} else {
						calls[fn] = append(calls[fn], g)
					}
				}
			}
		})
	}
	isBlocker := func(g *types.Func) bool { return blocks[g] }
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			if !blocks[fn] && slices.ContainsFunc(callees, isBlocker) {
				blocks[fn] = true
				changed = true
			}
		}
	}
	return blocks
}

// inspectCaller visits the nodes of root that run on the caller's
// goroutine: a go statement's arguments and function value are evaluated
// there, but the call it launches runs elsewhere. Deferred and
// immediately called literals run in the caller and are visited.
func inspectCaller(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			if n != nil {
				visit(n)
			}
			return true
		}
		if _, lit := ast.Unparen(g.Call.Fun).(*ast.FuncLit); !lit {
			inspectCaller(g.Call.Fun, visit)
		}
		for _, arg := range g.Call.Args {
			inspectCaller(arg, visit)
		}
		return false
	})
}

// checkLoopGoroutines flags `go func(){…}` inside a loop capturing a
// connection it never closes.
func checkLoopGoroutines(pass *framework.Pass, decl *ast.FuncDecl) {
	loops := 0
	var stack []ast.Node
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			switch stack[len(stack)-1].(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loops--
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops++
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok && loops > 0 {
				checkGoLit(pass, n, lit)
			}
		}
		return true
	})
}

func checkGoLit(pass *framework.Pass, g *ast.GoStmt, lit *ast.FuncLit) {
	info := pass.TypesInfo
	closed := make(map[*types.Var]bool)
	seen := make(map[*types.Var]bool)
	var conns []*types.Var // captured connection-like variables, in order of first use
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						closed[v] = true
					}
				}
			}
		case *ast.Ident:
			v, ok := info.Uses[n].(*types.Var)
			if !ok || seen[v] || v.IsField() || (v.Pkg() != nil && v.Parent() == v.Pkg().Scope()) ||
				(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
				return true // not a capture: a field, a package-level var, the literal's own
			}
			seen[v] = true
			if isConnLike(v.Type()) {
				conns = append(conns, v)
			}
		}
		return true
	})
	for _, v := range conns {
		if !closed[v] {
			pass.Reportf(g.Pos(),
				"loop goroutine captures connection %s without closing it on any path; a failed iteration leaks the socket", v.Name())
		}
	}
}
