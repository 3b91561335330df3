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
// once the arena has a key for every block — after two synchronizations —
// and gradients drift by no more than 3 % from one synchronization to the
// next, every block selection is a warm hit: none is cold, none falls back.
// The shapes are sync-sim-1m's (at a quarter of its length) and
// sync-tcp-small's, whose 1024-element blocks are under sparse's
// histSelectMin.
func TestSteadyStateSelectionsAreWarm(t *testing.T) {
	for _, c := range []struct {
		p, n, k, iters int
		opts           Options
	}{
		{p: 14, n: 1 << 18, k: 1 << 18 / 100, iters: 8, opts: Options{}},
		{p: 8, n: 4096, k: 409, iters: 12, opts: Options{Teams: 2}},
	} {
		base := makeGradients(1, c.p, c.n, 17)[0]
		drift := makeGradients(c.iters, c.p, c.n, 18)
		simnet.Run(c.p, unit, func(rank int, ep *simnet.Endpoint) {
			r, err := New(c.p, rank, c.n, c.k, c.opts)
			if err != nil {
				panic(err)
			}
			grad, out := make([]float32, c.n), make([]float32, c.n)
			var settled sparse.SelectStats
			for it := 0; it < c.iters; it++ {
				for i, g := range base[rank] {
					grad[i] = g * (1 + 0.03*max(-1, min(1, drift[it][rank][i])))
				}
				r.ReduceInto(ep, grad, out)
				ep.SyncClock()
				if it == 1 {
					settled = r.SelectStats()
				}
			}
			st := r.SelectStats()
			selections := uint64((c.iters - 2) * r.m)
			if st.Cold != settled.Cold || st.Fallback != settled.Fallback || st.WarmHit-settled.WarmHit != selections {
				panic(fmt.Sprintf("P=%d n=%d rank %d: %d block selections after the second sync went %+v → %+v; want every one a warm hit",
					c.p, c.n, rank, selections, settled, st))
			}
		})
	}
}
