package core

import (
	"fmt"
	"testing"

	"spardl/internal/simnet"
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
