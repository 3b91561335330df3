package analysis_test

// audit_test.go audits the auditors (ROADMAP item 3): every rule an
// analyzer's package doc lists is held to at least one mutant of the real
// tree. The module is copied once; each subtest seeds one bug — one exact
// text replacement in one shipped file — loads and type-checks the result
// through framework.Vet, the run cmd/spardl-vet makes, and requires the
// named analyzer's finding on the mutated lines. The unmutated copy is the
// control: zero findings. A rule whose mutant stops firing, or a mutant
// whose old text no longer matches the tree, fails here rather than
// rotting into a check that guards nothing.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"spardl/internal/analysis"
	"spardl/internal/analysis/framework"
)

// A mutant is one seeded bug.
type mutant struct {
	analyzer string // whose finding is required
	name     string // subtest name: TestAudit/<analyzer>/<name>
	file     string // relative to the module root
	// old is the text replaced, compared modulo runs of white space; it
	// must occur exactly once. new is written with "\n" where the bug needs
	// a line of its own (gofmt is not run over a mutant).
	old, new string
	// decl is a declaration the bug needs: an import goes on the package
	// clause's line ("package core; import \"time\""), anything else at the
	// end of the file, so neither moves a line number.
	decl string
	// want is the regexp the finding's message must match. An empty want
	// marks a recorded gap: a seeded bug the suite is known to let through
	// (README "does not catch"), which must stay silent — closing the gap
	// means moving the mutant to the rule that now catches it.
	want string
}

const (
	sag      = "internal/core/sag.go"
	spardl   = "internal/core/spardl.go"
	topk     = "internal/sparse/topk.go"
	chunk    = "internal/sparse/chunk.go"
	dsa      = "internal/sparsecoll/topkdsa.go"
	runtime  = "internal/comm/runtime.go"
	lane     = "internal/comm/lane.go"
	tcp      = "internal/tcpnet/tcpnet.go"
	rejoin   = "internal/tcpnet/rejoin.go"
	endpoint = "internal/tcpnet/endpoint.go"
)

const (
	// rsagMerge is the first statement of runRSAG's loop body after the
	// exchange; most hot-path mutants are seeded in front of it.
	rsagMerge = "merged := s.ar.MergeAdd(mine, got)"
	// rsagTail ends that loop body: drops collected, intermediates recycled.
	rsagTail = "s.addDrops(dropped, share) s.ar.Recycle(merged) s.ar.Recycle(dropped)"
	// failUnlock ends the critical section of tcpnet's peer.fail.
	failUnlock = "pr.mu.Unlock() pr.recvq.Close()"
	setConn    = "conn.SetDeadline(deadline)"
	noDeadline = `conn is used with no deadline set on it since \w+ returned it`
)

var mutants = []mutant{
	// nodeterm: one per finding in its package doc.
	{"nodeterm", "map-range-in-rsag", sag, rsagMerge,
		"for range map[int]bool{1: true} {\n}\n" + rsagMerge, "", `map iteration order`},
	{"nodeterm", "time-now-in-rsag", sag, rsagMerge,
		"_ = time.Now()\n" + rsagMerge, `import "time"`, `time\.Now is wall-clock`},
	{"nodeterm", "global-rand-in-rsag", sag, rsagMerge,
		"_ = rand.Intn(2)\n" + rsagMerge, `import "math/rand"`, `rand\.Intn draws from the globally seeded`},
	{"nodeterm", "two-case-select-in-rsag", sag, rsagMerge,
		"select {\ncase <-make(chan int):\ncase <-make(chan int):\n}\n" + rsagMerge, "", `select over 2 communication cases`},

	// floatcmp: raw operator (in sparse and, since it shares nodeterm's
	// package list, in core), ordered slices call.
	{"floatcmp", "raw-ge-in-ThresholdDense", topk,
		"nk := 0 for i := lo; i < hi; i++ { if v := dense[i]; v != 0 && absKey(v) >= thrKey {",
		"nk := 0\nfor i := lo; i < hi; i++ {\nif v := dense[i]; v != 0 && (v >= thr || -v >= thr) {", "", `raw float32 >=`},
	{"floatcmp", "raw-gt-in-rsag", sag, rsagMerge,
		"if mine.Len() > 1 && mine.Val[0] > mine.Val[1] {\nshare = 0\n}\n" + rsagMerge, "", `raw float32 >`},
	{"floatcmp", "slices-sort-values", chunk, "slices.Sort(c.Idx)", "slices.Sort(c.Val)", "", `slices\.Sort on \[\]float32`},

	// arenasafe: every escape route, use after Recycle, double Recycle.
	{"arenasafe", "field-escape", dsa,
		"items := collective.BruckAllGatherAlloc(ep, t.world, me, &dsaBlock{block: me, c: mine}, t.size, t.ar)",
		"blk := &dsaBlock{block: me}\nblk.c = mine\nitems := collective.BruckAllGatherAlloc(ep, t.world, me, blk, t.size, t.ar)", "", `mine escapes into field c`},
	{"arenasafe", "package-var-escape", sag, rsagTail,
		"s.addDrops(dropped, share)\nlast = merged\ns.ar.Recycle(dropped)", "var last *sparse.Chunk", `merged escapes into package variable last`},
	{"arenasafe", "channel-send", sag, rsagTail,
		"s.addDrops(dropped, share)\nleak <- merged\ns.ar.Recycle(dropped)", "var leak = make(chan *sparse.Chunk, 8)", `merged escapes on a channel send`},
	{"arenasafe", "goroutine-capture", sag, rsagTail,
		"go s.addDrops(dropped, share)\ns.ar.Recycle(merged)", "", `dropped is shared with a goroutine`},
	{"arenasafe", "use-after-recycle", sag, rsagTail,
		"s.ar.Recycle(merged)\ns.ar.Recycle(dropped)\ns.addDrops(dropped, share)", "", `dropped is used after Recycle`},
	{"arenasafe", "recycle-sent-chunk", sag, rsagTail,
		"s.addDrops(dropped, share)\ns.ar.Recycle(merged)\ns.ar.Recycle(dropped)\ns.ar.Recycle(mine)\n_ = mine.Len()", "", `mine is used after Recycle`},
	{"arenasafe", "recycle-twice", sag, rsagTail,
		"s.addDrops(dropped, share)\ns.ar.Recycle(merged)\ns.ar.Recycle(dropped)\ns.ar.Recycle(merged)", "", `merged is recycled twice`},
	{"arenasafe", "gap-field-escape-through-append", sag, rsagTail,
		"s.addDrops(dropped, share)\ns.undo = append(s.undo, merged)\ns.ar.Recycle(dropped)", "", ""},
	{"arenasafe", "gap-field-escape-through-index", sag, rsagTail,
		"s.addDrops(dropped, share)\ns.undo[0] = merged\ns.ar.Recycle(dropped)", "", ""},
	{"arenasafe", "gap-never-recycled", sag, rsagTail,
		"s.addDrops(dropped, share)\ns.ar.Recycle(dropped)", "", ""},

	// hotalloc: each construct its doc lists, inside runRSAG's loop.
	{"hotalloc", "make-in-loop", sag, rsagMerge,
		"_ = make([]int32, got.Len())\n" + rsagMerge, "", `make allocates on every loop iteration`},
	{"hotalloc", "new-in-loop", sag, rsagMerge,
		"_ = new(sparse.Chunk)\n" + rsagMerge, "", `new allocates on every loop iteration`},
	{"hotalloc", "literal-in-loop", sag, rsagMerge,
		"_ = []int{dist}\n" + rsagMerge, "", `composite literal allocates on every loop iteration`},
	{"hotalloc", "unsized-append-in-loop", sag,
		"share := float32(0.5) for dist := 1; dist < s.d; dist *= 2 {",
		"share := float32(0.5)\nvar seen []int\nfor dist := 1; dist < s.d; dist *= 2 {\nseen = append(seen, dist)", "", `append to seen grows an unsized slice`},
	{"hotalloc", "sprintf", sag, rsagMerge,
		"_ = fmt.Sprintf(\"%d\", dist)\n" + rsagMerge, `import "fmt"`, `fmt\.Sprintf allocates`},
	{"hotalloc", "chunk-boxed-into-any", sag, rsagMerge,
		"var boxed any = *got\n_ = boxed\n" + rsagMerge, "", `Chunk value boxed into an interface`},
	{"hotalloc", "chunk-assigned-to-any", sag, rsagMerge,
		"var boxed any\nboxed = *got\n_ = boxed\n" + rsagMerge, "", `Chunk value boxed into an interface`},
	{"hotalloc", "int-boxed-into-argument", sag, "in, _ := ep.SendRecv(peer, mine, s.tx.ChunkBytes(mine))",
		"in, _ := ep.SendRecv(peer, mine.Len(), s.tx.ChunkBytes(mine))", "", `int value boxed into an interface`},
	{"hotalloc", "capturing-closure", sag, rsagMerge,
		"_ = func() int { return dist }\n" + rsagMerge, "", `closure captures dist`},
	{"hotalloc", "gap-make-outside-loop", sag, "share := float32(0.5)",
		"share := float32(0.5)\n_ = make([]int32, s.d)", "", ""},

	// hotprop: a hot function reaching a cold allocator, across packages
	// (AllocatesFact) and inside one.
	{"hotprop", "hot-calls-FromMap", sag, rsagMerge,
		"_ = sparse.FromMap(nil)\n" + rsagMerge, "", `hot path calls allocating non-hotpath function FromMap`},
	{"hotprop", "hot-calls-FromMap-in-package", topk, "out := a.Get(nk) for i := lo; i < hi; i++ {",
		"out := a.Get(nk)\n_ = FromMap(nil)\nfor i := lo; i < hi; i++ {", "", `hot path calls allocating non-hotpath function FromMap`},

	// locksafe: leaked locks, then each way of blocking under one.
	{"locksafe", "peer-fail-no-unlock", endpoint, `pr.mu.Lock() if pr.cause == "" { pr.cause = cause } pr.mu.Unlock()`,
		`pr.mu.Lock(); if pr.cause == "" { pr.cause = cause }`, "", `pr\.mu\.Lock is not released`},
	{"locksafe", "cause-note-no-unlock", runtime, `c.mu.Lock() if c.s == "" { c.s = cause } c.mu.Unlock()`,
		`c.mu.Lock(); if c.s == "" { c.s = cause }`, "", `c\.mu\.Lock is not released`},
	{"locksafe", "send-no-unlock", runtime, "e.mu.Lock() e.stats.MsgsSent++ e.stats.BytesSent += int64(len(buf)) e.mu.Unlock()",
		"e.mu.Lock()\ne.stats.MsgsSent++\ne.stats.BytesSent += int64(len(buf))", "", `e\.mu\.Lock is not released`},
	{"locksafe", "join-no-unlock", lane, "l.busy = 0 l.mu.Unlock() return exposed, busy, err",
		"l.busy = 0\nreturn exposed, busy, err", "", `return while l\.mu is still Locked`},
	{"locksafe", "waitgroup-wait-under-lock", lane, "l.pending.Wait() exposed = time.Since(t0) l.mu.Lock()",
		"l.mu.Lock()\nl.pending.Wait()\nexposed = time.Since(t0)", "", `WaitGroup\.Wait while holding l\.mu`},
	{"locksafe", "sleep-under-lock", endpoint, failUnlock,
		"time.Sleep(time.Millisecond)\npr.mu.Unlock()\npr.recvq.Close()", "", `time\.Sleep while holding pr\.mu`},
	{"locksafe", "channel-send-under-lock", endpoint, failUnlock,
		"make(chan int) <- 1\npr.mu.Unlock()\npr.recvq.Close()", "", `channel send while holding pr\.mu`},
	{"locksafe", "select-under-lock", endpoint, failUnlock,
		"select {}\npr.mu.Unlock()\npr.recvq.Close()", "", `select while holding pr\.mu`},
	{"locksafe", "channel-receive-under-lock", endpoint, failUnlock,
		"<-make(chan int)\npr.mu.Unlock()\npr.recvq.Close()", "", `channel receive while holding pr\.mu`},
	{"locksafe", "conn-write-under-lock", endpoint, failUnlock,
		"pr.conn.Write(nil)\npr.mu.Unlock()\npr.recvq.Close()", "", `net\.Conn Write while holding pr\.mu`},
	{"locksafe", "fifo-pop-under-lock-in-package", lane, "l.mu.Lock() err = l.err",
		"l.mu.Lock()\nl.tasks.Pop()\nerr = l.err", "", `Pop \(may block\) while holding l\.mu`},
	{"locksafe", "fifo-pop-under-lock-across-packages", endpoint, "m, ok := pr.recvq.Pop()",
		"pr.mu.Lock()\nm, ok := pr.recvq.Pop()\npr.mu.Unlock()", "", `Pop \(may block\) while holding pr\.mu`},
	{"locksafe", "loop-goroutine-keeps-conn-open", tcp,
		"if err := writeHandshake(conn, l.rank, gen); err != nil { conn.Close() errs <- fmt.Errorf(\"tcpnet: handshake to worker %d: %w\", r, err) return }",
		"go func() {\nwriteHandshake(conn, l.rank, gen)\n}()", "", `loop goroutine captures connection conn without closing it`},
	{"locksafe", "gap-interface-call-under-lock", runtime,
		"e.mu.Unlock() if err := e.link.Deliver(to, Frame{Buf: buf, Accounted: bytes}); err != nil {",
		"err := e.link.Deliver(to, Frame{Buf: buf, Accounted: bytes})\ne.mu.Unlock()\nif err != nil {", "", ""},

	// netdeadline: each of the six conns the rendezvous and the mesh give
	// birth to, with its own SetDeadline deleted; a listener; and the hole
	// the caller-path rule had — a deadline, but on the listener.
	{"netdeadline", "serveRendezvous-no-deadline", tcp, setConn + " want, gen, addr, err := readHello(conn)",
		"want, gen, addr, err := readHello(conn)", "", noDeadline},
	{"netdeadline", "checkInOnce-no-deadline", tcp, setConn + " if err := writeHello(conn, cfg.Rank, cfg.Gen, dataAddr); err != nil {",
		"if err := writeHello(conn, cfg.Rank, cfg.Gen, dataAddr); err != nil {", "", noDeadline},
	{"netdeadline", "mesh-accept-no-deadline", tcp, setConn + " peer, peerGen, err := readHandshake(conn)",
		"peer, peerGen, err := readHandshake(conn)", "", noDeadline},
	{"netdeadline", "mesh-dial-no-deadline", tcp, setConn + " if err := writeHandshake(conn, l.rank, gen); err != nil {",
		"if err := writeHandshake(conn, l.rank, gen); err != nil {", "", noDeadline},
	{"netdeadline", "followRejoin-no-deadline", rejoin, setConn + " // the leader answers after its settle window if err := writeHello(",
		"if err := writeHello(", "", noDeadline},
	{"netdeadline", "leadRejoin-no-deadline", rejoin, setConn + " id, g, a, err := readHello(conn)",
		"id, g, a, err := readHello(conn)", "", noDeadline},
	{"netdeadline", "deadline-on-the-listener-only", tcp, setConn + " want, gen, addr, err := readHello(conn)",
		"ln.(*net.TCPListener).SetDeadline(deadline)\nwant, gen, addr, err := readHello(conn)", "", noDeadline},
	{"netdeadline", "data-listener-no-deadline", tcp, "defer dataLn.Close() dataLn.(*net.TCPListener).SetDeadline(deadline) var rank int",
		"defer dataLn.Close()\nvar rank int\n_ = dataLn.(*net.TCPListener)", "", `dataLn is used with no deadline set on it since Listen returned it`},
}

func TestAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("copies the module and type-checks it once per mutant")
	}
	root := copyModule(t)

	// Control: the unmutated copy is clean, and tells each mutant which
	// packages it needs — the mutated one and its in-module imports, whose
	// facts the suite reads.
	pkgs, diags := vet(t, root, []string{"./..."})
	for _, d := range diags {
		t.Errorf("control: finding on the unmutated tree: %s", d)
	}
	byPath := make(map[string]*framework.Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	var closure func(path string, into map[string]bool)
	closure = func(path string, into map[string]bool) {
		if p := byPath[path]; p != nil && !into[path] {
			into[path] = true
			for _, imp := range p.Types.Imports() {
				closure(imp.Path(), into)
			}
		}
	}

	audited := make(map[string]bool)
	for _, m := range mutants {
		if m.want != "" {
			audited[m.analyzer] = true
		}
	}
	for _, a := range analysis.All() {
		if !audited[a.Name] {
			t.Errorf("analyzer %s has no mutant: it guards nothing this test can show", a.Name)
		}
		t.Run(a.Name, func(t *testing.T) {
			for _, m := range mutants {
				if m.analyzer != a.Name {
					continue
				}
				t.Run(m.name, func(t *testing.T) {
					need := make(map[string]bool)
					closure("spardl/"+filepath.ToSlash(filepath.Dir(m.file)), need)
					var patterns []string
					for path := range need {
						patterns = append(patterns, path)
					}
					first, last := m.apply(t, root)
					_, diags := vet(t, root, patterns)
					want := regexp.MustCompile(m.want)
					for _, d := range diags {
						if !strings.HasSuffix(filepath.ToSlash(d.Pos.Filename), "/"+m.file) || d.Pos.Line < first || last < d.Pos.Line {
							continue
						}
						if m.want == "" {
							t.Errorf("recorded gap is closed — move this mutant to the rule that catches it and drop it from README's \"does not catch\": %s", d)
						} else if d.Analyzer == m.analyzer && want.MatchString(d.Message) {
							return
						}
					}
					if m.want != "" {
						t.Errorf("seeded bug walks through: no %s finding matching %q on %s:%d-%d; the run reported %d finding(s): %v",
							m.analyzer, m.want, m.file, first, last, len(diags), diags)
					}
				})
			}
		})
	}
}

// apply writes the mutated file into the copy, restores it when the
// subtest ends, and returns the line range the new text occupies.
func (m mutant) apply(t *testing.T, root string) (first, last int) {
	t.Helper()
	path := filepath.Join(root, m.file)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := string(orig)
	words := strings.Fields(m.old)
	for i, w := range words {
		words[i] = regexp.QuoteMeta(w)
	}
	at := regexp.MustCompile(strings.Join(words, `\s+`)).FindAllStringIndex(src, -1)
	if len(at) != 1 {
		t.Fatalf("mutant does not apply: old text occurs %d times in %s, want exactly 1:\n%s", len(at), m.file, m.old)
	}
	first = 1 + strings.Count(src[:at[0][0]], "\n")
	last = first + strings.Count(m.new, "\n")
	src = src[:at[0][0]] + m.new + src[at[0][1]:]
	if strings.HasPrefix(m.decl, "import ") {
		clause := regexp.MustCompile(`(?m)^package \w+$`).FindStringIndex(src)
		src = src[:clause[1]] + "; " + m.decl + src[clause[1]:]
	} else if m.decl != "" {
		src += m.decl + "\n"
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	return first, last
}

// vet is one spardl-vet run over the copy; a tree that does not load —
// a mutant that does not type-check — fails the (sub)test.
func vet(t *testing.T, dir string, patterns []string) ([]*framework.Package, []framework.Diagnostic) {
	t.Helper()
	pkgs, diags, err := framework.Vet(dir, patterns, analysis.All()...)
	if err != nil {
		t.Fatalf("mutant does not type-check: %v", err)
	}
	return pkgs, diags
}

// copyModule copies go.mod and every shipped (non-test, non-testdata) Go
// and assembly file of the module into a temporary directory: without a
// package's .s files its assembly-backed declarations have no body.
func copyModule(t *testing.T) string {
	t.Helper()
	src, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != src && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		shipped := strings.HasSuffix(name, ".s") || strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
		if name != "go.mod" && !shipped {
			return nil
		}
		rel, _ := filepath.Rel(src, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(fmt.Errorf("copying the module: %w", err))
	}
	return dst
}
