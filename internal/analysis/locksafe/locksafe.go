// Package locksafe enforces mutex discipline across the tree:
//
//   - Leaked locks: a sync.Mutex/RWMutex Lock (or RLock) must be paired
//     with a deferred Unlock or an Unlock on every return path of the
//     function. A small abstract walker simulates the held-lock set over
//     the statement tree; paths ending in panic() are exempt (the process
//     is dying).
//   - Blocking under a lock: channel send/receive, select, WaitGroup.Wait,
//     time.Sleep, net.Conn-style Read/Write, and calls to functions that
//     transitively block (via BlocksFact, cross-package) are flagged while
//     a mutex is held. sync.Cond.Wait is exempt in its own function — it
//     releases the mutex — but marks the function as blocking for callers
//     (comm.Fifo.Pop is the canonical carrier).
//   - Goroutines in loops: a `go func(){…}` launched inside a loop that
//     captures a connection-like value it never closes (a failed iteration
//     leaks the socket).
//
// The walker is deliberately conservative toward false negatives: when
// branches disagree about the held set, the unlocked view wins, so only
// paths that provably return while locked are reported.
//
// Suppress a deliberate exception with `//spardl:locksafe-ok <reason>`.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"spardl/internal/analysis/callgraph"
	"spardl/internal/analysis/framework"
)

// Analyzer is the locksafe pass.
var Analyzer = &framework.Analyzer{
	Name:     "locksafe",
	Doc:      "flag locks without unlock on every return path, blocking operations under a held mutex, and loop goroutines capturing a conn they never close",
	Suppress: "locksafe-ok",
	Requires: []*framework.Analyzer{callgraph.Analyzer},
	Run:      run,
}

// BlocksFact marks a function that may block (channel ops, Wait, conn
// I/O, or calling another blocker) so callers holding locks are flagged
// across package boundaries.
type BlocksFact struct{}

// AFact marks BlocksFact as a framework.Fact.
func (*BlocksFact) AFact() {}

func run(pass *framework.Pass) (any, error) {
	cg := pass.ResultOf[callgraph.Analyzer].(*callgraph.Result)
	blocks := computeBlockers(pass, cg)
	for _, fn := range cg.Funcs {
		if blocks[fn] {
			pass.ExportObjectFact(fn, &BlocksFact{})
		}
	}
	for _, fn := range cg.Funcs {
		decl := cg.Nodes[fn].Decl
		w := &walker{pass: pass, blocks: blocks}
		w.walkScopes(decl.Body)
		checkLoopGoroutines(pass, decl)
	}
	return nil, nil
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
		return held // the goroutine runs elsewhere; its scope is walked separately
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.EmptyStmt,
		*ast.BranchStmt, *ast.LabeledStmt:
		return held
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
	if w.blocks[fn] || w.pass.ImportObjectFact(fn, &BlocksFact{}) {
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

// computeBlockers marks functions that may block, including through
// static in-package calls and imported facts.
func computeBlockers(pass *framework.Pass, cg *callgraph.Result) map[*types.Func]bool {
	info := pass.TypesInfo
	blocks := make(map[*types.Func]bool)
	for _, fn := range cg.Funcs {
		decl := cg.Nodes[fn].Decl
		direct := false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt, *ast.SelectStmt:
				direct = true
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					direct = true
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						direct = true
					}
				}
			case *ast.CallExpr:
				if g := framework.Callee(info, n); g != nil {
					if isCondWait(g) || intrinsicBlocker(g) != "" {
						direct = true
					}
				}
			}
			return !direct
		})
		if direct {
			blocks[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range cg.Funcs {
			if blocks[fn] {
				continue
			}
			for _, c := range cg.Nodes[fn].Calls {
				if c.Dynamic || c.Go {
					continue
				}
				if blocks[c.Callee] || pass.ImportObjectFact(c.Callee, &BlocksFact{}) {
					blocks[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return blocks
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
