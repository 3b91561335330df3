// Package floatcmp flags raw ordered comparisons on float32 gradient
// values in the packages nodeterm holds to bit-identical output
// (nodeterm.Packages: core, collective, sparsecoll, sparse, wire). IEEE
// float comparison is not a total order — every ordered comparison against
// a NaN is false — so a single poisoned gradient makes raw `<`/`>` pivots and
// threshold tests drift: quickselect partition invariants collapse, the
// selected count moves away from k, and replicas holding identical data
// stop making identical selections (the PR-5 bug class). Magnitude
// ordering must route through the math.Float32bits total-order key helpers
// (sparse.absKey and friends), under which NaN/Inf rank deterministically
// above all finite values.
//
// Exemptions:
//   - comparisons against the constant zero (`v < 0`, `thr <= 0`): sign
//     and emptiness tests are deterministic for every input including NaN
//     (they are simply false) and do not order magnitudes;
//   - float64 comparisons: gradients are float32 throughout this
//     repository, while float64 is control state (adaptive targets,
//     timing) that never holds gradient data.
//
// Sorting a []float32 with package slices (or a sort.Slice comparator that
// compares float32s raw — caught by the operator rule inside the closure)
// is flagged for the same reason.
//
// Suppress a deliberate exception with `//spardl:floatcmp-ok <reason>`.
package floatcmp

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"spardl/internal/analysis/framework"
	"spardl/internal/analysis/nodeterm"
)

// Analyzer is the floatcmp pass.
var Analyzer = &framework.Analyzer{
	Name:     "floatcmp",
	Doc:      "flag raw float32 ordering (comparison or sort) in the determinism-critical packages; NaN breaks IEEE order, use Float32bits total-order keys",
	Suppress: "floatcmp-ok",
	Run:      run,
}

// orderedSliceFuncs are the package-slices functions that impose the raw
// `<` order of their element type. The *Func variants are judged by their
// comparator instead, whose raw compares the operator rule catches.
var orderedSliceFuncs = map[string]bool{
	"Sort": true, "IsSorted": true, "Min": true, "Max": true, "BinarySearch": true,
}

func run(pass *framework.Pass) error {
	if !nodeterm.Packages[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkCompare(pass, n)
			case *ast.CallExpr:
				checkSortCall(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkCompare(pass *framework.Pass, cmp *ast.BinaryExpr) {
	switch cmp.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return
	}
	x, okx := pass.TypesInfo.Types[cmp.X]
	y, oky := pass.TypesInfo.Types[cmp.Y]
	if !okx || !oky {
		return
	}
	if !framework.IsFloat32(x.Type) && !framework.IsFloat32(y.Type) {
		return
	}
	if isZeroConst(x.Value) || isZeroConst(y.Value) {
		return // sign/emptiness test: NaN-deterministic, no magnitude order
	}
	pass.Reportf(cmp.OpPos,
		"raw float32 %s is not a total order (NaN compares false); compare math.Float32bits total-order keys instead", cmp.Op)
}

func isZeroConst(v constant.Value) bool {
	return v != nil && v.Kind() != constant.Unknown && constant.Compare(v, token.EQL, constant.MakeInt64(0))
}

func checkSortCall(pass *framework.Pass, call *ast.CallExpr) {
	fn := framework.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "slices" {
		return
	}
	if !orderedSliceFuncs[fn.Name()] || len(call.Args) == 0 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	slice, ok := tv.Type.Underlying().(*types.Slice)
	if !ok || !framework.IsFloat32(slice.Elem()) {
		return
	}
	pass.Reportf(call.Pos(),
		"slices.%s on []float32 uses raw IEEE order (NaN poisons it); sort math.Float32bits total-order keys instead", fn.Name())
}
