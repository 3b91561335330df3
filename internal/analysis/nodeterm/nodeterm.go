// Package nodeterm flags sources of run-to-run nondeterminism in the
// packages whose output must be bit-identical across workers and backends:
// the collective schedules, the sparse merge/selection kernels and the wire
// codecs. SparDL's correctness argument (and every cross-backend
// equivalence suite in this repository) assumes that workers holding
// identical data produce identical bytes; a single map-range whose order
// reaches a peer, an unseeded rand, or a racing select silently breaks
// that, usually only under load.
//
// Findings:
//   - `range` over a map: iteration order is randomized per run. Sort the
//     keys first, iterate a deterministic schedule, or suppress with a
//     reason if order provably cannot reach wire bytes or peer-visible
//     state.
//   - time.Now / time.Since: wall-clock values differ across workers.
//   - math/rand (and math/rand/v2) package-level functions: globally
//     seeded, different per process. Construct an explicitly seeded
//     rand.New(rand.NewSource(seed)) instead.
//   - select over two or more communication cases: the runtime picks a
//     ready case uniformly at random.
//
// Suppress a deliberate exception with
// `//spardl:nondeterministic-ok <reason>` on the finding's line or the
// line above.
package nodeterm

import (
	"go/ast"
	"go/types"

	"spardl/internal/analysis/framework"
)

// Analyzer is the nodeterm pass.
var Analyzer = &framework.Analyzer{
	Name:     "nodeterm",
	Doc:      "flag nondeterministic constructs (map range, time.Now, global math/rand, multi-way select) in determinism-critical packages",
	Suppress: "nondeterministic-ok",
	Run:      run,
}

// Packages names the packages whose computations must be bit-identical
// across workers, matched by package name so analysistest fixtures
// participate under the same rules as the real tree. floatcmp is scoped by
// the same list: a NaN-dependent ordering is one more way for replicas to
// diverge.
var Packages = map[string]bool{
	"core":       true,
	"collective": true,
	"sparsecoll": true,
	"sparse":     true,
	"wire":       true,
}

// seededConstructors are the math/rand functions that build explicitly
// seeded generators — the sanctioned alternative to the global source.
var seededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *framework.Pass) (any, error) {
	if !Packages[pass.Pkg.Name()] {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.SelectStmt:
				checkSelect(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

func checkMapRange(pass *framework.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
		pass.Reportf(rng.Range,
			"map iteration order is nondeterministic and can reach wire bytes or peer-visible state; iterate sorted keys or a deterministic schedule")
	}
}

func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	fn := framework.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(call.Pos(),
				"time.%s is wall-clock state and differs across workers; thread an explicit clock or iteration counter instead", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if fn.Type().(*types.Signature).Recv() != nil {
			return // methods on an explicitly constructed *rand.Rand are fine
		}
		if !seededConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"%s.%s draws from the globally seeded source and differs per process; use an explicitly seeded rand.New(rand.NewSource(seed))", fn.Pkg().Name(), fn.Name())
		}
	}
}

func checkSelect(pass *framework.Pass, sel *ast.SelectStmt) {
	comms := 0
	for _, clause := range sel.Body.List {
		if c, ok := clause.(*ast.CommClause); ok && c.Comm != nil {
			comms++
		}
	}
	if comms >= 2 {
		pass.Reportf(sel.Pos(),
			"select over %d communication cases resolves readiness races at random; impose a deterministic receive order", comms)
	}
}
