package core

import (
	"runtime"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
)

// TestWarmHeapStaysFlat: a reducer hands its arena back at the top of every
// sync (sparse.Arena.Reset), so the live heap after warm-up does not grow
// with the number of syncs. One that skips the reset keeps every slab it
// ever filled, and 200 syncs at this size leave megabytes behind;
// TestWarmSyncAllocs cannot see that, because a new slab is one allocation
// in many syncs.
func TestWarmHeapStaysFlat(t *testing.T) {
	const p, n, k = 4, 1 << 14, 1 << 10
	const warm, runs = 20, 200
	const bound = 1 << 20 // bytes the live heap may gain over the runs
	for _, c := range []struct {
		name string
		f    sparsecoll.Factory
	}{
		{"SparDL", NewFactory(Options{})},
		{"TopkA", sparsecoll.NewTopkA},
		{"TopkDSA", sparsecoll.NewTopkDSA},
		{"gTopk", sparsecoll.NewGTopk},
		{"OkTopk", sparsecoll.NewOkTopk},
	} {
		t.Run(c.name, func(t *testing.T) {
			grads := ledgerGrads(1, p, n, 3)[0]
			var before, after runtime.MemStats
			liveHeap := func(ep comm.Endpoint, m *runtime.MemStats) {
				ep.SyncClock()
				if ep.Rank() == 0 {
					runtime.GC()
					runtime.ReadMemStats(m)
				}
				ep.SyncClock()
			}
			simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
				r := c.f(p, rank, n, k)
				out := make([]float32, n)
				for i := 0; i < warm+runs; i++ {
					if i == warm {
						liveHeap(ep, &before)
					}
					r.ReduceInto(ep, grads[rank], out)
					ep.SyncClock()
				}
				liveHeap(ep, &after)
				runtime.KeepAlive(r)
			})
			if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > bound {
				t.Fatalf("live heap grew %d KiB over %d warm syncs (bound %d KiB): an arena is not reset", grew>>10, runs, bound>>10)
			}
		})
	}
}
