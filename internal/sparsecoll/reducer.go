// Package sparsecoll implements the sparse all-reduce baselines the paper
// compares against (Table I): TopkA and TopkDSA from SparCML, gTopk, and
// the state-of-the-art Ok-Topk, plus a dense all-reduce adapter. Each
// method is a Reducer: per-worker state (residual accumulators, threshold
// estimators) lives inside the instance, and Reduce performs one
// synchronization step over the simulated fabric.
package sparsecoll

import (
	"fmt"

	"spardl/internal/comm"
	"spardl/internal/sparse"
	"spardl/internal/wire"
)

// Reducer synchronizes one worker's dense gradient with all peers and
// returns the global (sparse-summed) gradient, densified. After Reduce
// returns, every worker holds an identical result vector — the property
// synchronous SGD requires. Implementations keep per-worker residual state,
// so construct one Reducer per worker and reuse it across iterations.
type Reducer interface {
	Name() string
	// Reduce consumes the local dense gradient for this iteration (the
	// slice is not retained or mutated) and returns the synchronized
	// global gradient.
	Reduce(ep comm.Endpoint, grad []float32) []float32
}

// Factory builds a Reducer for one worker of a P-worker cluster that
// synchronizes length-n gradients, keeping k global entries per iteration.
type Factory func(p, rank, n, k int) Reducer

// InPlaceReducer is the steady-state variant of Reducer: ReduceInto writes
// the synchronized global gradient into out (len n, fully overwritten)
// instead of allocating a result per call. Every reducer in this
// repository implements it; combined with the per-reducer chunk arenas the
// whole reduce pipeline runs allocation-free once warm. Reduce and
// ReduceInto are interchangeable — Reduce is ReduceInto plus one result
// allocation the caller owns.
type InPlaceReducer interface {
	Reducer
	ReduceInto(ep comm.Endpoint, grad, out []float32)
}

// ReduceInto synchronizes grad into out via r's in-place path when it has
// one, falling back to copying from Reduce. Steady-state loops (trainer,
// benchmarks) route through this helper so third-party Reducers keep
// working unchanged.
func ReduceInto(r Reducer, ep comm.Endpoint, grad, out []float32) {
	if ir, ok := r.(InPlaceReducer); ok {
		ir.ReduceInto(ep, grad, out)
		return
	}
	copy(out, r.Reduce(ep, grad))
}

// tunable is implemented by reducers whose simulator byte accounting can
// be moved off the default; base provides it to every sparse baseline.
type tunable interface {
	tune(mode wire.Mode)
}

// Tuned returns a factory that builds the same reducers as f, charged on
// the simulator by the given wire mode (wire.ModeCOO, the zero value, is
// the default). Reducers without sparse messages (e.g. Dense) are
// returned unchanged — their wire volume is already exact — so mixed
// method lists can be wrapped uniformly.
func Tuned(f Factory, mode wire.Mode) Factory {
	return func(p, rank, n, k int) Reducer {
		r := f(p, rank, n, k)
		if t, ok := r.(tunable); ok {
			t.tune(mode)
		}
		return r
	}
}

// CompCost models the local-computation virtual time charged while
// executing a reducer: selections scan elements, merges touch sparse
// entries. The defaults approximate a few GB/s of selection throughput,
// in line with the paper treating selection as a minor but non-zero part
// of per-update computation cost.
type CompCost struct {
	PerElementScan float64 // seconds per element scanned by a selection
	PerEntryMerge  float64 // seconds per sparse entry merged or summed
}

// DefaultCompCost is used by all reducers in this package and in core.
var DefaultCompCost = CompCost{PerElementScan: 0.5e-9, PerEntryMerge: 2e-9}

// ChargeScan advances ep's clock for a selection pass over n elements.
func ChargeScan(ep comm.Endpoint, n int) {
	ep.Compute(DefaultCompCost.PerElementScan * float64(n))
}

// ChargeMerge advances ep's clock for merging n sparse entries.
func ChargeMerge(ep comm.Endpoint, n int) {
	ep.Compute(DefaultCompCost.PerEntryMerge * float64(n))
}

// base is the state every sparse baseline (TopkA, TopkDSA, gTopk, Ok-Topk)
// embeds: the problem size, the chunk arena, the simulator accounting, and
// the reducer's one length-n vector. Between calls that vector is the
// stored residual; begin adds the gradient onto it and the method then
// works on it in place — select from it, zero what left with the
// selection — so what remains when the call returns is the next residual.
// No baseline writes the vector between its prologue and that final
// zeroing, so unlike core.SparDL none needs an undo log.
type base struct {
	name     string
	n, k     int
	residual []float32
	ar       *sparse.Arena
	tx       wire.Transport
}

func newBase(name string, n, k int) base {
	return base{name: name, n: n, k: k, residual: make([]float32, n), ar: sparse.NewArena()}
}

// Name implements Reducer, tagging a non-default accounting mode so
// experiment tables distinguish them.
func (b *base) Name() string {
	if b.tx.Mode == wire.ModeCOO {
		return b.name
	}
	return b.name + "+" + b.tx.Mode.String()
}

// tune implements tunable.
func (b *base) tune(mode wire.Mode) { b.tx.Mode = mode }

// Residual implements ResidualCarrier.
func (b *base) Residual() []float32 { return b.residual }

// RestoreResidual implements ResidualRestorer.
func (b *base) RestoreResidual(res []float32) {
	if len(res) != b.n {
		panic(fmt.Sprintf("sparsecoll: restoring a %d-value residual into a %d-value reducer", len(res), b.n))
	}
	copy(b.residual, res)
}

// begin starts a synchronization: a new arena epoch, then the gradient
// onto the stored residual. The vector now holds what Algorithm 1 calls
// G_copy.
//
//spardl:hotpath
func (b *base) begin(grad []float32) {
	b.ar.Reset()
	sparse.AddInto(b.residual, grad)
}

// scatterInto densifies reduced chunks into out, overwriting it fully.
//
//spardl:hotpath
func scatterInto(out []float32, chunks []*sparse.Chunk) {
	for i := range out {
		out[i] = 0
	}
	for _, c := range chunks {
		if c != nil {
			c.AddToDense(out)
		}
	}
}
