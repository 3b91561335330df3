package livenet_test

import (
	"math"
	"math/rand"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/livenet"
	"spardl/internal/simnet"
	"spardl/internal/wire"
)

// TestNaNInfSelectionDeterminism is the Reduce-level regression for the
// NaN/Inf selection fix: a full core.SparDL.Reduce over gradients poisoned
// with NaN and ±Inf must produce bit-identical results (a) across all
// replicas and (b) across the reference-passing simulator and the real
// byte-level transport, in every wire mode. Bit comparison matters — NaN
// != NaN under float equality, so the equivalence is on Float32bits.
func TestNaNInfSelectionDeterminism(t *testing.T) {
	const p, n, k, iters = 4, 600, 24, 3

	poisonedGrad := func(rank, iter int) []float32 {
		rng := rand.New(rand.NewSource(int64(77*iter + rank)))
		g := make([]float32, n)
		for i := range g {
			g[i] = float32(rng.NormFloat64())
		}
		// Deterministic poison: one NaN and both infinities per worker, at
		// worker-dependent positions so the sparse union mixes them.
		g[(13*rank+7*iter)%n] = float32(math.NaN())
		g[(31*rank+11*iter)%n] = float32(math.Inf(1))
		g[(53*rank+17*iter)%n] = float32(math.Inf(-1))
		return g
	}

	run := func(b comm.Backend, mode wire.Mode) [][][]float32 {
		outs := make([][][]float32, iters)
		for it := range outs {
			outs[it] = make([][]float32, p)
		}
		f := core.NewFactory(core.Options{Wire: mode})
		b.Run(p, func(rank int, ep comm.Endpoint) {
			r := f(p, rank, n, k)
			for it := 0; it < iters; it++ {
				outs[it][rank] = r.Reduce(ep, poisonedGrad(rank, it))
				ep.SyncClock()
			}
		})
		return outs
	}

	for _, mode := range []wire.Mode{wire.ModeCOO, wire.ModeNegotiated} {
		t.Run(mode.String(), func(t *testing.T) {
			sim := run(simnet.Backend(simnet.Ethernet), mode)
			live := run(livenet.NewBackend(), mode)
			sawPoison := false
			for it := 0; it < iters; it++ {
				for rank := 0; rank < p; rank++ {
					if !bitsEqual32(sim[it][rank], live[it][rank]) {
						t.Fatalf("iter %d rank %d: livenet selection diverges from simnet on poisoned gradients", it, rank)
					}
					if rank > 0 && !bitsEqual32(live[it][0], live[it][rank]) {
						t.Fatalf("iter %d: replicas 0 and %d diverge on poisoned gradients", it, rank)
					}
				}
				for _, v := range sim[it][0] {
					if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
						sawPoison = true
					}
				}
			}
			// Sanity: the poison must actually have reached the global
			// selection, otherwise this test pins nothing.
			if !sawPoison {
				t.Fatal("no NaN/Inf entries survived into the global gradient; poison did not exercise selection")
			}
		})
	}
}

// bitsEqual32 compares two float32 vectors bit for bit (NaN-safe).
func bitsEqual32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
