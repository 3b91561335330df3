package sparsecoll

import (
	"testing"

	"spardl/internal/simnet"
)

// TestOkTopkControllerEdges drives Ok-Topk's selection-size controller
// into its edges. Each worker's first gradient is one entry of 1e-13 and
// every later one is zero, so the residual never holds target non-zeros:
// the threshold estimate is 0 and falls back to 1e-12, which the entry
// stays below, so nothing is ever selected and the target doubles every
// sync until it sits exactly at the cap of 4k. The output stays all-zero
// and the entry stays in the residual throughout.
func TestOkTopkControllerEdges(t *testing.T) {
	const p, n, k, syncs = 4, 64, 8, 8
	const tiny = float32(1e-13)
	targets := make([][]float64, p)
	leaked := make([]int, p) // syncs whose output or residual went wrong
	simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
		o := NewOkTopk(p, rank, n, k).(*OkTopk)
		grad, out := make([]float32, n), make([]float32, n)
		grad[rank] = tiny
		for s := 0; s < syncs; s++ {
			o.ReduceInto(ep, grad, out)
			clear(grad)
			for i, v := range out {
				want := float32(0)
				if i == rank {
					want = tiny
				}
				if v != 0 || o.residual[i] != want {
					leaked[rank]++
					break
				}
			}
			targets[rank] = append(targets[rank], o.target)
			ep.SyncClock()
		}
	})
	for rank := range targets {
		if leaked[rank] != 0 {
			t.Errorf("rank %d: %d syncs selected the sub-threshold entry", rank, leaked[rank])
		}
		want := overSelect * k / p
		for s, got := range targets[rank] {
			want = min(2*want, 4*k)
			if got != want {
				t.Fatalf("rank %d: target after sync %d = %v, want %v (doubling, capped at 4k = %d)", rank, s, got, want, 4*k)
			}
		}
		if want != 4*k {
			t.Fatalf("rank %d: target never reached the cap in %d syncs", rank, syncs)
		}
	}
	// The initial target is at least one entry, however small k/P.
	if got := NewOkTopk(16, 0, n, 1).(*OkTopk).target; got != 1 {
		t.Errorf("NewOkTopk(P=16, k=1) target = %v, want 1", got)
	}
}
