package core

import (
	"math/rand"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
	"spardl/internal/wire"
)

// TestSparDLOverSegmentWithTeams: the full SparDL machinery — SRS, team
// synchronization, GRES — must run unchanged over a bucket sub-range via
// sparsecoll.NewSegment, with per-bucket residual state: two disjoint
// buckets must reproduce exactly the two standalone SparDL runs on their
// sub-vectors, across iterations.
func TestSparDLOverSegmentWithTeams(t *testing.T) {
	const (
		p          = 8
		n          = 4096
		cut        = 1536 // bucket boundary
		k          = 64
		iterations = 3
	)
	factory := sparsecoll.Tuned(NewFactory(Options{Teams: 2}), wire.ModeNegotiated)

	grad := func(n, rank, it int) []float32 {
		rng := rand.New(rand.NewSource(int64(97*rank + it)))
		g := make([]float32, n)
		for i := range g {
			v := rng.NormFloat64()
			g[i] = float32(v * v * v) // heavy tails, like real gradients
		}
		return g
	}

	// Bucketed run: two SegmentReducers per worker over one flat vector.
	bucketed := make([][]float32, iterations)
	simnet.Run(p, comm.Ethernet, func(rank int, ep *simnet.Endpoint) {
		k0 := k * cut / n
		buckets := []*sparsecoll.SegmentReducer{
			sparsecoll.NewSegment(factory, p, rank, 0, cut, k0),
			sparsecoll.NewSegment(factory, p, rank, cut, n, k-k0),
		}
		out := make([]float32, n)
		for it := 0; it < iterations; it++ {
			flat := grad(n, rank, it)
			for _, b := range buckets {
				b.ReduceInto(ep, flat[b.Lo:b.Hi], out)
			}
			if rank == 0 {
				bucketed[it] = append([]float32(nil), out...)
			}
			ep.SyncClock()
		}
	})

	// Standalone runs on each sub-vector must agree bit-for-bit.
	for _, seg := range []struct{ lo, hi, k int }{{0, cut, k * cut / n}, {cut, n, k - k*cut/n}} {
		alone := make([][]float32, iterations)
		simnet.Run(p, comm.Ethernet, func(rank int, ep *simnet.Endpoint) {
			r := factory(p, rank, seg.hi-seg.lo, seg.k)
			for it := 0; it < iterations; it++ {
				flat := grad(n, rank, it)
				got := reduce(r, ep, flat[seg.lo:seg.hi])
				if rank == 0 {
					alone[it] = got
				}
				ep.SyncClock()
			}
		})
		for it := 0; it < iterations; it++ {
			for i := range alone[it] {
				if bucketed[it][seg.lo+i] != alone[it][i] {
					t.Fatalf("bucket [%d,%d) iter %d differs at %d: %g vs %g",
						seg.lo, seg.hi, it, i, bucketed[it][seg.lo+i], alone[it][i])
				}
			}
		}
	}
}

// TestSparDLSegmentTinyBucket: buckets far smaller than the worker count
// (empty partition blocks, clamped budgets) must still synchronize replicas
// identically.
func TestSparDLSegmentTinyBucket(t *testing.T) {
	const p, n = 8, 5 // n < P: some SRS blocks are empty
	outs := make([][]float32, p)
	simnet.Run(p, comm.Ethernet, func(rank int, ep *simnet.Endpoint) {
		r := sparsecoll.NewSegment(NewFactory(Options{}), p, rank, 0, n, 2)
		g := make([]float32, n)
		for i := range g {
			g[i] = float32(rank*10 + i + 1)
		}
		outs[rank] = reduce(r, ep, g)
	})
	for w := 1; w < p; w++ {
		for i := range outs[0] {
			if outs[w][i] != outs[0][i] {
				t.Fatalf("worker %d disagrees at %d: %g vs %g", w, i, outs[w][i], outs[0][i])
			}
		}
	}
}
