package sparsecoll

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/simnet"
	"spardl/internal/wire"
)

var unit = comm.Profile{Name: "unit", Alpha: 1, Beta: 1}

// zeroCompCost silences selection/merge compute charges for tests that
// assert pure α-β communication costs. It restores the default on cleanup.
func zeroCompCost(t *testing.T) {
	t.Helper()
	saved := DefaultCompCost
	DefaultCompCost = CompCost{}
	t.Cleanup(func() { DefaultCompCost = saved })
}

// makeGradients builds deterministic per-iteration, per-worker gradients.
func makeGradients(iters, p, n int, seed int64) [][][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][][]float32, iters)
	for it := range out {
		out[it] = make([][]float32, p)
		for w := range out[it] {
			g := make([]float32, n)
			for i := range g {
				g[i] = float32(rng.NormFloat64())
			}
			out[it][w] = g
		}
	}
	return out
}

// reduce runs one ReduceInto into a fresh vector of grad's length.
func reduce(r Reducer, ep comm.Endpoint, grad []float32) []float32 {
	out := make([]float32, len(grad))
	r.ReduceInto(ep, grad, out)
	return out
}

// runMethod drives one reducer per worker for several iterations and
// returns per-iteration outputs, the final reducers, and the run report.
func runMethod(f Factory, p, n, k, iters int, seed int64) (outs [][][]float32, reducers []Reducer, rep *simnet.Report) {
	grads := makeGradients(iters, p, n, seed)
	outs = make([][][]float32, iters)
	for it := range outs {
		outs[it] = make([][]float32, p)
	}
	reducers = make([]Reducer, p)
	rep = simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
		r := f(p, rank, n, k)
		reducers[rank] = r
		for it := 0; it < iters; it++ {
			outs[it][rank] = reduce(r, ep, grads[it][rank])
			ep.SyncClock()
		}
	})
	return outs, reducers, rep
}

func assertConsistent(t *testing.T, outs [][][]float32) {
	t.Helper()
	for it, perWorker := range outs {
		ref := perWorker[0]
		for w := 1; w < len(perWorker); w++ {
			for i := range ref {
				if perWorker[w][i] != ref[i] {
					t.Fatalf("iter %d: worker %d disagrees with worker 0 at index %d: %g vs %g",
						it, w, i, perWorker[w][i], ref[i])
				}
			}
		}
	}
}

// Conservation, in these tests' names, is held exactly and per index by
// internal/core's TestMassLedger; here they check consistency.
func TestTopkAConsistencyAndConservation(t *testing.T) {
	const p, n, k, iters, seed = 6, 1200, 60, 4, 7
	outs, _, _ := runMethod(NewTopkA, p, n, k, iters, seed)
	assertConsistent(t, outs)
}

func TestTopkACostModel(t *testing.T) {
	zeroCompCost(t)
	for _, p := range []int{4, 7, 14} {
		const n, k = 2000, 100
		_, _, rep := runMethod(NewTopkA, p, n, k, 1, 1)
		if want := ceilLog2(p); rep.MaxRounds() != want {
			t.Fatalf("P=%d rounds=%d want %d", p, rep.MaxRounds(), want)
		}
		// Table I: 2(P-1)k wire elements = 8k(P-1) bytes per worker.
		if want := int64(8 * k * (p - 1)); rep.MaxBytesRecv() != want {
			t.Fatalf("P=%d bytes=%d want %d", p, rep.MaxBytesRecv(), want)
		}
	}
}

func TestTopkDSAConsistencyAndConservation(t *testing.T) {
	const p, n, k, iters, seed = 6, 1200, 60, 4, 8
	outs, _, _ := runMethod(NewTopkDSA, p, n, k, iters, seed)
	assertConsistent(t, outs)
}

func TestTopkDSACostModel(t *testing.T) {
	zeroCompCost(t)
	for _, p := range []int{4, 6, 14} {
		const n, k = 2800, 140
		_, _, rep := runMethod(NewTopkDSA, p, n, k, 1, 2)
		// Direct-send RS: P-1 rounds; Bruck AG: ⌈log₂P⌉ rounds.
		if want := p - 1 + ceilLog2(p); rep.MaxRounds() != want {
			t.Fatalf("P=%d rounds=%d want %d", p, rep.MaxRounds(), want)
		}
		// Bandwidth within Table I envelope: at least 4(P-1)/P·k elements,
		// at most (P-1)/P·(2k+n) elements (4 bytes each). The envelope
		// assumes uniformly distributed selections, so compare the
		// *average* per-worker volume; individual workers may exceed it
		// when selections skew toward their block.
		lo := int64(4 * 4 * k * (p - 1) / p)
		hi := int64(math.Ceil(4 * float64(p-1) / float64(p) * float64(2*k+n)))
		var total int64
		for _, s := range rep.PerWorker {
			total += s.BytesRecv
		}
		avg := total / int64(p)
		if avg < lo/2 || avg > hi {
			t.Fatalf("P=%d avg bytes=%d outside envelope [%d, %d]", p, avg, lo/2, hi)
		}
	}
}

func TestGTopkConsistency(t *testing.T) {
	const p, n, k, iters, seed = 8, 1200, 60, 4, 9
	outs, _, _ := runMethod(NewGTopk, p, n, k, iters, seed)
	assertConsistent(t, outs)
	// gTopk returns an exact global top-k: every output has exactly k
	// non-zeros.
	for it := range outs {
		nz := 0
		for _, v := range outs[it][0] {
			if v != 0 {
				nz++
			}
		}
		if nz != k {
			t.Fatalf("iter %d: %d non-zeros, want exactly %d", it, nz, k)
		}
	}
}

func TestGTopkLosesInProcedureResiduals(t *testing.T) {
	// The motivating deficiency (Section III-C): gTopk's PRES residuals
	// drop gradients discarded inside the reduction tree, so conservation
	// fails by a measurable amount.
	const p, n, k, iters, seed = 8, 1200, 40, 4, 10
	grads := makeGradients(iters, p, n, seed)
	outs, reds, _ := runMethod(NewGTopk, p, n, k, iters, seed)
	var injected, synced, leftover float64
	for it := 0; it < iters; it++ {
		for w := 0; w < p; w++ {
			for _, v := range grads[it][w] {
				injected += float64(v)
			}
		}
		for _, v := range outs[it][0] {
			synced += float64(v)
		}
	}
	for _, r := range reds {
		for _, v := range r.(ResidualCarrier).Residual() {
			leftover += float64(v)
		}
	}
	if diff := math.Abs(injected - synced - leftover); diff < 1e-6 {
		t.Fatalf("expected gTopk to lose in-procedure mass, but conservation held (diff=%g)", diff)
	}
}

func TestGTopkLatency(t *testing.T) {
	zeroCompCost(t)
	alphaOnly := comm.Profile{Name: "alpha", Alpha: 1, Beta: 0}
	const p, n, k = 8, 1000, 50
	grads := makeGradients(1, p, n, 3)
	rep := simnet.Run(p, alphaOnly, func(rank int, ep *simnet.Endpoint) {
		reduce(NewGTopk(p, rank, n, k), ep, grads[0][rank])
	})
	// Reduction tree + broadcast tree: 2·log₂P rounds on the critical path.
	if want := float64(2 * ceilLog2(p)); rep.Time != want {
		t.Fatalf("critical path = %g α, want %g α", rep.Time, want)
	}
}

func TestGTopkRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for P=6")
		}
	}()
	NewGTopk(6, 0, 100, 10)
}

func TestOkTopkConsistencyAndConservation(t *testing.T) {
	const p, n, k, iters, seed = 6, 1200, 60, 5, 11
	outs, _, _ := runMethod(NewOkTopk, p, n, k, iters, seed)
	assertConsistent(t, outs)
}

func TestOkTopkSelectionTracksK(t *testing.T) {
	// The adaptive threshold should keep the global selected count within
	// a small factor of k after a few iterations (but generally not equal
	// to k — that is the paper's point about threshold pruning).
	const p, n, k, iters, seed = 6, 4000, 200, 12, 12
	outs, _, _ := runMethod(NewOkTopk, p, n, k, iters, seed)
	for it := iters - 3; it < iters; it++ {
		nz := 0
		for _, v := range outs[it][0] {
			if v != 0 {
				nz++
			}
		}
		if nz < k/4 || nz > 4*k {
			t.Fatalf("iter %d: selected %d, want within [%d, %d]", it, nz, k/4, 4*k)
		}
	}
}

func TestOkTopkCostModel(t *testing.T) {
	zeroCompCost(t)
	for _, p := range []int{4, 6, 14} {
		const n, k = 2800, 140
		_, _, rep := runMethod(NewOkTopk, p, n, k, 2, 13)
		// Per iteration: direct-send RS (P-1) + counts all-gather (logP) +
		// block all-gather (logP), plus at most one balancing round.
		perIter := p - 1 + 2*ceilLog2(p)
		if got := rep.MaxRounds(); got < 2*perIter || got > 2*(perIter+1) {
			t.Fatalf("P=%d rounds=%d want ≈2×%d", p, got, perIter)
		}
	}
}

// Every baseline must behave identically — same outputs, same rounds —
// under negotiated accounting, which must charge strictly fewer bytes than
// COO at this sparsity.
func TestBaselineWireModes(t *testing.T) {
	cases := []struct {
		name string
		f    Factory
		p    int
	}{
		{"TopkA", NewTopkA, 6},
		{"TopkDSA", NewTopkDSA, 6},
		{"gTopk", NewGTopk, 8},
		{"OkTopk", NewOkTopk, 6},
	}
	for _, tc := range cases {
		const n, k, iters, seed = 24000, 240, 3, 21 // k/n = 1e-2
		outsCOO, _, repCOO := runMethod(tc.f, tc.p, n, k, iters, seed)
		neg, _, repNeg := runMethod(Tuned(tc.f, wire.ModeNegotiated), tc.p, n, k, iters, seed)
		assertConsistent(t, neg)
		for it := range outsCOO {
			if !reflect.DeepEqual(neg[it][0], outsCOO[it][0]) {
				t.Fatalf("%s: wire mode changed the computed gradient at iter %d", tc.name, it)
			}
		}
		if repNeg.MaxBytesRecv() >= repCOO.MaxBytesRecv() {
			t.Fatalf("%s: negotiated bytes %d not below COO %d",
				tc.name, repNeg.MaxBytesRecv(), repCOO.MaxBytesRecv())
		}
		if repNeg.MaxRounds() != repCOO.MaxRounds() {
			t.Fatalf("%s: negotiated accounting changed the rounds: %d, COO %d",
				tc.name, repNeg.MaxRounds(), repCOO.MaxRounds())
		}
	}
}

func TestDenseReducer(t *testing.T) {
	for _, p := range []int{4, 6} {
		const n = 500
		outs, _, _ := runMethod(NewDense, p, n, 0, 2, 14)
		assertConsistent(t, outs)
		// Dense all-reduce must equal the exact sum.
		grads := makeGradients(2, p, n, 14)
		for i := 0; i < n; i++ {
			var want float64
			for w := 0; w < p; w++ {
				want += float64(grads[0][w][i])
			}
			if math.Abs(want-float64(outs[0][0][i])) > 1e-3 {
				t.Fatalf("P=%d index %d: got %g want %g", p, i, outs[0][0][i], want)
			}
		}
	}
}

// TestDenseChargesMerge: the dense baseline books one merge of its n
// elements per sync and no other compute, so its simulated time is
// comparable with the sparse methods' selection and merge charges.
func TestDenseChargesMerge(t *testing.T) {
	const p, n = 4, 500
	_, _, rep := runMethod(NewDense, p, n, 0, 1, 3)
	want := DefaultCompCost.PerEntryMerge * n
	for w, st := range rep.PerWorker {
		if st.CompTime != want {
			t.Fatalf("worker %d: compute %g s, want one merge of %d elements, %g s", w, st.CompTime, n, want)
		}
	}
}

func ceilLog2(p int) int {
	l := 0
	for 1<<l < p {
		l++
	}
	return l
}
