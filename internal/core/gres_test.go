package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
)

// TestGRESExactSemantics pins the residual bookkeeping on a hand-checkable
// two-worker scenario: n=4, one block per worker, k=2 (one entry per
// block). With two workers and two blocks, worker w preserves block w and
// sends the other block in one SRS step.
func TestGRESExactSemantics(t *testing.T) {
	const p, n, k = 2, 4, 2
	// Gradients chosen so selections are unambiguous:
	// blocks: [0,2) owned by worker 0, [2,4) owned by worker 1.
	grads := [][]float32{
		{4, 1, -3, 0.5}, // worker 0
		{2, 0.25, 1, 5}, // worker 1
	}
	outs := make([][]float32, p)
	reducers := make([]*SparDL, p)
	simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
		r, err := New(p, rank, n, k, Options{})
		if err != nil {
			panic(err)
		}
		reducers[rank] = r
		g := append([]float32(nil), grads[rank]...)
		outs[rank] = reduce(r, ep, g)
	})

	// blockK = k/P = 1 entry per block.
	// Worker 0 sends top-1 of block 1: max(|-3|, |0.5|) → index 2 (-3);
	//   0.5 at index 3 becomes ξ (discarded pre-send).
	// Worker 1 sends top-1 of block 0: index 0 (2); 0.25 at index 1 → ξ.
	// Worker 0 merges received {0:2} into its block 0 {4,1} → {6,1},
	//   reserved selection keeps index 0 (6); index 1 (1) → ξ.
	// Worker 1 merges {2:-3} into block 1 {1,5} → {-2,5}, keeps index 3
	//   (5.5... exactly 5+0.5? no: worker 1's own block 1 is {1, 5};
	//   received -3 at index 2 → {-2, 5}; top-1 keeps index 3 (5);
	//   index 2 (-2) → ξ at worker 1.
	// Final global gradient: {6, 0, 0, 5}.
	want := []float32{6, 0, 0, 5}
	for w := 0; w < p; w++ {
		for i := range want {
			if outs[w][i] != want[i] {
				t.Fatalf("worker %d out[%d] = %g, want %g (out=%v)", w, i, outs[w][i], want[i], outs[w])
			}
		}
	}

	// GRES residuals (final index set = {0, 3}):
	// worker 0: index 0 ∈ final → ξ₀[0] = 0 (its 4 survived into the sum);
	//   index 1 ∉ final → snapshot 1 (discarded at the reserved selection,
	//   kept at the origin);
	//   index 2 ∉ final → snapshot -3: worker 0's contribution was sent but
	//   worker 1 discarded the merged sum — an end-procedure residual that
	//   stays with the originating worker;
	//   index 3 ∉ final → snapshot 0.5 (local pre-send discard).
	wantRes0 := []float32{0, 1, -3, 0.5}
	// worker 1: index 0 ∈ final → ξ₁[0] = 0 (its 2 was sent and survived);
	//   index 1: not final → snapshot 0.25; index 2: not final → snapshot
	//   1 (its own block-1 value at index 2, which it discarded after the
	//   merge — but snapshot holds the original 1; the merged -2 discard
	//   went to ξ₁[2], ignored since 2 ∉ final);
	//   index 3 ∈ final → ξ₁[3] = 0.
	wantRes1 := []float32{0, 0.25, 1, 0}
	for i := range wantRes0 {
		if got := reducers[0].Residual()[i]; got != wantRes0[i] {
			t.Fatalf("worker 0 residual[%d] = %g, want %g (%v)", i, got, wantRes0[i], reducers[0].Residual())
		}
		if got := reducers[1].Residual()[i]; got != wantRes1[i] {
			t.Fatalf("worker 1 residual[%d] = %g, want %g (%v)", i, got, wantRes1[i], reducers[1].Residual())
		}
	}
}

// TestResidualReuseAcrossIterations verifies that residual values actually
// feed back: a value just below the selection cut must be synchronized in a
// later iteration once accumulated.
func TestResidualReuseAcrossIterations(t *testing.T) {
	const p, n, k = 2, 4, 2
	outs := make([][][]float32, 3)
	simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
		r, err := New(p, rank, n, k, Options{})
		if err != nil {
			panic(err)
		}
		for it := 0; it < 3; it++ {
			// Index 1 always carries 0.6 — below index 0's 1.0 — so it is
			// never selected fresh, but accumulates 0.6/iteration in the
			// residual until it beats 1.0 (at the second iteration:
			// 1.2 > 1.0).
			g := []float32{1, 0.6, 1, 0.6}
			out := reduce(r, ep, g)
			if rank == 0 {
				outs[it] = append(outs[it], out)
			}
		}
	})
	if outs[0][0][1] != 0 {
		t.Fatalf("iter 0 should not sync index 1: %v", outs[0][0])
	}
	if outs[1][0][1] == 0 {
		t.Fatalf("iter 1 should sync accumulated index 1: %v", outs[1][0])
	}
}

func TestSparDLSingleWorker(t *testing.T) {
	simnet.Run(1, unit, func(rank int, ep *simnet.Endpoint) {
		r, err := New(1, 0, 100, 10, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		g := make([]float32, 100)
		for i := range g {
			g[i] = float32(i)
		}
		out := reduce(r, ep, g)
		nz := 0
		for _, v := range out {
			if v != 0 {
				nz++
			}
		}
		if nz != 10 {
			t.Errorf("P=1 kept %d entries, want 10", nz)
		}
	})
}

// TestReducePanicsOnWrongLength: a call with a gradient or output of the
// wrong length panics in the reducer's own guard, before any state
// changes — the residual is bit-identical afterwards. A long vector would
// otherwise be accepted, and a short one fail half-way through the sync.
func TestReducePanicsOnWrongLength(t *testing.T) {
	const n, k, lo = 100, 10, 20
	ep := simnet.New(1, unit).Endpoint(0)
	spardl := func() sparsecoll.Reducer { return NewFactory(Options{})(1, 0, n, k) }
	// TopkA has no guard of its own, so only the segment's can reject.
	segment := func() sparsecoll.Reducer { return sparsecoll.NewSegment(sparsecoll.NewTopkA, 1, 0, lo, lo+n, k) }
	const spardlGuard, segmentGuard = "core: gradient/output length", "gradient values"
	for _, c := range []struct {
		name      string
		build     func() sparsecoll.Reducer
		out       int // a good call's output length
		grad, bad int // the rejected call's gradient and output lengths
		guard     string
	}{
		{"spardl/short-grad", spardl, n, n - 1, n, spardlGuard},
		{"spardl/long-grad", spardl, n, n + 1, n, spardlGuard},
		{"spardl/short-out", spardl, n, n, n - 1, spardlGuard},
		{"spardl/long-out", spardl, n, n, n + 1, spardlGuard},
		{"segment/short-grad", segment, lo + n, n - 1, lo + n, segmentGuard},
		{"segment/long-grad", segment, lo + n, n + 1, lo + n, segmentGuard},
		{"segment/empty", func() sparsecoll.Reducer {
			return sparsecoll.NewSegment(NewFactory(Options{}), 1, 0, lo, lo, k)
		}, 0, 0, 0, "is empty or negative"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var r sparsecoll.Reducer
			var before []float32
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.guard) {
					t.Fatalf("panic %q, want the guard's %q", msg, c.guard)
				}
				if r == nil {
					return
				}
				if i := firstBitDiff(r.(sparsecoll.ResidualCarrier).Residual(), before); i >= 0 {
					t.Fatalf("the rejected call changed residual[%d]", i)
				}
			}()
			r = c.build()
			grad := make([]float32, n)
			for i := range grad {
				grad[i] = float32(i%7) - 3
			}
			r.ReduceInto(ep, grad, make([]float32, c.out))
			before = append([]float32(nil), r.(sparsecoll.ResidualCarrier).Residual()...)
			r.ReduceInto(ep, make([]float32, c.grad), make([]float32, c.bad))
		})
	}
}

func TestSparDLIndivisibleSizes(t *testing.T) {
	// n not divisible by m, k not divisible by m — exercises the balanced
	// partition and the blockK floor.
	for _, tc := range []struct{ p, n, k, d int }{
		{6, 997, 53, 1},
		{6, 997, 53, 3},
		{14, 1013, 29, 7},
		{10, 501, 11, 5},
	} {
		outs, _, _ := runSparDL(t, tc.p, tc.n, tc.k, 2, int64(tc.p), Options{Teams: tc.d})
		assertConsistent(t, outs)
	}
}

// TestGRESBeatsLRESOnStarvedCoordinates: with GRES, coordinates that are
// repeatedly discarded mid-procedure eventually synchronize; LRES loses
// them when they were locally selected but dropped downstream.
func TestResidualModesDivergeInValue(t *testing.T) {
	const p, n, k, iters, seed = 6, 600, 12, 6, 5
	sums := map[ResidualMode]float64{}
	for _, mode := range []ResidualMode{GRES, LRES} {
		outs, _, _ := runSparDL(t, p, n, k, iters, seed, Options{Residual: mode})
		var total float64
		for it := range outs {
			for _, v := range outs[it][0] {
				total += math.Abs(float64(v))
			}
		}
		sums[mode] = total
	}
	// GRES re-injects everything, so over the run it must synchronize at
	// least as much gradient magnitude as LRES.
	if sums[GRES] <= sums[LRES] {
		t.Fatalf("GRES synchronized %.2f, LRES %.2f — expected GRES to carry more mass",
			sums[GRES], sums[LRES])
	}
}
