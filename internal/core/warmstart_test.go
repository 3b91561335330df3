package core

import (
	"fmt"
	"testing"

	"spardl/internal/simnet"
	"spardl/internal/sparse"
)

// TestStaleSelectionHintsChangeNothing: a reducer's arena remembers each
// block's last selection threshold, and RestoreResidual does not tell it
// that the vector underneath went back in time. It does not have to: the
// remembered thresholds decide how a selection is computed, never what it
// returns. Reducers that ran ahead on 50×-scaled gradients and were then
// restored to an old snapshot must reduce bit for bit like fresh reducers
// given that snapshot — on blocks long enough to take the warm-started
// path, which the counters confirm they did, uselessly.
func TestStaleSelectionHintsChangeNothing(t *testing.T) {
	const p, n, k, ahead = 4, 4 * 3000, 120, 3
	for _, opts := range []Options{{}, {Teams: 2}, {Eager: true}, {Residual: LRES}} {
		grads := makeGradients(ahead+2, p, n, 11)
		for it := 1; it <= ahead; it++ {
			for _, g := range grads[it] {
				for i := range g {
					g[i] *= 50
				}
			}
		}
		next := grads[ahead+1]
		reducers := make([]*SparDL, p)
		ring := make([][]float32, p) // residuals after the first sync
		outs := make([][]float32, p)
		simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
			r, err := New(p, rank, n, k, opts)
			if err != nil {
				panic(err)
			}
			reducers[rank], outs[rank] = r, make([]float32, n)
			for it := 0; it <= ahead; it++ {
				r.ReduceInto(ep, grads[it][rank], outs[rank])
				if it == 0 {
					ring[rank] = append([]float32(nil), r.Residual()...)
				}
				ep.SyncClock()
			}
			before := r.SelectStats()
			r.RestoreResidual(ring[rank])
			r.ReduceInto(ep, next[rank], outs[rank])
			if after := r.SelectStats(); after.Fallback == before.Fallback {
				panic(fmt.Sprintf("rank %d: no selection fell back (%+v → %+v); the remembered thresholds were not stale", rank, before, after))
			}
		})
		simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
			fresh, _ := New(p, rank, n, k, opts)
			fresh.RestoreResidual(ring[rank])
			out := make([]float32, n)
			fresh.ReduceInto(ep, next[rank], out)
			if i := firstBitDiff(outs[rank], out); i >= 0 {
				panic(fmt.Sprintf("%+v rank %d: out[%d] = %v with stale thresholds, %v fresh", opts, rank, i, outs[rank][i], out[i]))
			}
			if i := firstBitDiff(reducers[rank].Residual(), fresh.Residual()); i >= 0 {
				panic(fmt.Sprintf("%+v rank %d: residual[%d] differs with stale thresholds", opts, rank, i))
			}
		})
	}
}

// TestSteadyStateSelectionsAreWarm pins the mechanism, not only the result:
// once the arena has a key for every block and gradients drift by no more
// than 3 % from one synchronization to the next, every block selection is a
// warm hit: none is cold, none falls back. The first two shapes are
// sync-sim-1m's (at a quarter of its length) and sync-tcp-small's, whose
// 1024-element blocks are under sparse's histSelectMin, settled after two
// synchronizations. The third is sync-live-buckets' largest tensor under
// one repeated gradient, where error feedback has, after sixty
// synchronizations, piled the residual up just under each block's key: a
// filter that admits a whole histogram bucket below the key there overflows
// its candidate buffer on a third of the selections, and one as wide as the
// key has been moving on none.
func TestSteadyStateSelectionsAreWarm(t *testing.T) {
	for _, c := range []struct {
		p, n, k, iters int
		settle         int     // synchronizations until the steady state
		drift          float32 // how far a gradient entry strays from one synchronization to the next
		opts           Options
	}{
		{p: 14, n: 1 << 18, k: 1 << 18 / 100, iters: 8, settle: 2, drift: 0.03, opts: Options{}},
		{p: 8, n: 4096, k: 409, iters: 12, settle: 2, drift: 0.03, opts: Options{Teams: 2}},
		{p: 4, n: 102400, k: 1024, iters: 120, settle: 60, drift: 0, opts: Options{}},
	} {
		base := makeGradients(1, c.p, c.n, 17)[0]
		var noise [][][]float32
		if c.drift != 0 {
			noise = makeGradients(c.iters, c.p, c.n, 18)
		}
		simnet.Run(c.p, unit, func(rank int, ep *simnet.Endpoint) {
			r, err := New(c.p, rank, c.n, c.k, c.opts)
			if err != nil {
				panic(err)
			}
			grad, out := make([]float32, c.n), make([]float32, c.n)
			var settled sparse.SelectStats
			for it := 0; it < c.iters; it++ {
				copy(grad, base[rank])
				if noise != nil {
					for i := range grad {
						grad[i] *= 1 + c.drift*max(-1, min(1, noise[it][rank][i]))
					}
				}
				r.ReduceInto(ep, grad, out)
				ep.SyncClock()
				if it == c.settle-1 {
					settled = r.SelectStats()
				}
			}
			st := r.SelectStats()
			selections := uint64((c.iters - c.settle) * r.m)
			if st.Cold != settled.Cold || st.Fallback != settled.Fallback || st.WarmHit-settled.WarmHit != selections {
				panic(fmt.Sprintf("P=%d n=%d rank %d: %d block selections after sync %d went %+v → %+v; want every one a warm hit",
					c.p, c.n, rank, selections, c.settle, settled, st))
			}
			if c.drift == 0 && st.Tightened != settled.Tightened {
				panic(fmt.Sprintf("P=%d n=%d rank %d: %d of %d block selections of a stationary residual overflowed the candidate buffer (%+v → %+v)",
					c.p, c.n, rank, st.Tightened-settled.Tightened, selections, settled, st))
			}
		})
	}
}
