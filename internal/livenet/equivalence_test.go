package livenet_test

import (
	"math/rand"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/livenet"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
	"spardl/internal/wire"
)

// TestBackendEquivalence: for every sparse reducer factory, running the
// same gradient streams over the real byte-level transport must produce
// gradients bit-identical to the α-β simulator's. This pins the package
// determinism contract — the serialize/deserialize round-trip through the
// wire codecs loses nothing, and goroutine scheduling decides nothing.
// Each method runs once, under the default accounting ("coo"):
// TestWireModeInertOnBytes shows the other value changes nothing here, and
// what it charges on the simulator is pinned there (core and sparsecoll
// wire-mode tests).
// The "-flip" entries shrink n and raise k until the reduce-scatter fan-in
// is guaranteed to switch to dense blocks mid-collective (P·k/n ≈ 2 entries
// per block position) — every configuration must stay bit-identical across
// backends regardless of which representation each stream is in when it
// crosses the wire.
func TestBackendEquivalence(t *testing.T) {
	const n, k, iters = 2000, 60, 3
	const flipN, flipK = 1024, 512 // fan-in density ≈ P·k/n ≥ 2 → dense switch

	spardl := core.NewFactory
	methods := []struct {
		name string
		p    int
		f    sparsecoll.Factory
		n, k int
	}{
		{"spardl", 6, spardl(core.Options{}), n, k},
		{"spardl-eager", 6, spardl(core.Options{Eager: true}), n, k},
		{"spardl-d2-rsag", 6, spardl(core.Options{Teams: 2}), n, k},
		{"spardl-d3-bsag", 6, spardl(core.Options{Teams: 3}), n, k},
		{"topka", 6, sparsecoll.NewTopkA, n, k},
		{"topkdsa", 6, sparsecoll.NewTopkDSA, n, k},
		{"oktopk", 6, sparsecoll.NewOkTopk, n, k},
		{"gtopk", 4, sparsecoll.NewGTopk, n, k},
		// Ring at P=6, Rabenseifner at P=4. Simnet serializes dense vectors
		// through the codec livenet uses, so these two rows show agreement,
		// not correctness: collective's TestDenseEquivalence pins both
		// schedules on all three fabrics to hashes from before that codec.
		{"dense", 6, sparsecoll.NewDense, n, k},
		{"dense-p4", 4, sparsecoll.NewDense, n, k},
		// Forced mid-collective sparse→dense flips.
		{"spardl-flip", 4, spardl(core.Options{}), flipN, flipK},
		{"spardl-flip-eager", 4, spardl(core.Options{Eager: true}), flipN, flipK},
		{"topkdsa-flip", 4, sparsecoll.NewTopkDSA, flipN, flipK},
		{"oktopk-flip", 4, sparsecoll.NewOkTopk, flipN, flipK},
	}

	for _, m := range methods {
		t.Run(m.name+"/coo", func(t *testing.T) {
			sim, _ := runReducer(simnet.Backend(comm.Ethernet), m.f, m.p, m.n, m.k, iters)
			live, _ := runReducer(livenet.NewBackend(), m.f, m.p, m.n, m.k, iters)
			for it := 0; it < iters; it++ {
				for rank := 0; rank < m.p; rank++ {
					if !equal32(sim[it][rank], live[it][rank]) {
						t.Fatalf("iter %d rank %d: livenet gradient diverges from simnet", it, rank)
					}
				}
				// Replicas must also agree with each other on the live
				// backend — the property S-SGD relies on.
				for rank := 1; rank < m.p; rank++ {
					if !equal32(live[it][0], live[it][rank]) {
						t.Fatalf("iter %d: livenet replicas 0 and %d diverge", it, rank)
					}
				}
			}
		})
	}
}

// TestWireModeInertOnBytes: sparsecoll.Tuned's mode is what the simulator
// charges; where bytes are real it must change nothing. For
// SparDL at d = 1, 2, 3 and each baseline, a livenet run under ModeCOO and
// one under ModeNegotiated produce identical outputs, identical real bytes
// and identical per-worker rounds — by construction the same payload
// objects reach the same codec, and this is the check that it stays so.
func TestWireModeInertOnBytes(t *testing.T) {
	const n, k, iters = 2000, 60, 3
	for _, m := range []struct {
		name string
		p    int
		f    sparsecoll.Factory
	}{
		{"spardl", 6, core.NewFactory(core.Options{})},
		{"spardl-d2", 6, core.NewFactory(core.Options{Teams: 2})},
		{"spardl-d3", 6, core.NewFactory(core.Options{Teams: 3})},
		{"topka", 6, sparsecoll.NewTopkA},
		{"topkdsa", 6, sparsecoll.NewTopkDSA},
		{"oktopk", 6, sparsecoll.NewOkTopk},
		{"gtopk", 4, sparsecoll.NewGTopk},
	} {
		t.Run(m.name, func(t *testing.T) {
			coo, repCOO := runReducer(livenet.NewBackend(), sparsecoll.Tuned(m.f, wire.ModeCOO), m.p, n, k, iters)
			neg, repNeg := runReducer(livenet.NewBackend(), sparsecoll.Tuned(m.f, wire.ModeNegotiated), m.p, n, k, iters)
			for it := 0; it < iters; it++ {
				for rank := 0; rank < m.p; rank++ {
					if !equal32(coo[it][rank], neg[it][rank]) {
						t.Fatalf("iter %d rank %d: the accounting mode changed a livenet output", it, rank)
					}
				}
			}
			if repCOO.TotalBytesRecv() == 0 || repCOO.TotalBytesRecv() != repNeg.TotalBytesRecv() {
				t.Fatalf("real bytes differ by accounting mode: coo %d, negotiated %d",
					repCOO.TotalBytesRecv(), repNeg.TotalBytesRecv())
			}
			for rank := 0; rank < m.p; rank++ {
				if c, g := repCOO.PerWorker[rank].Rounds, repNeg.PerWorker[rank].Rounds; c != g {
					t.Fatalf("rank %d: rounds differ by accounting mode: coo %d, negotiated %d", rank, c, g)
				}
			}
		})
	}
}

// runReducer executes iters synchronization steps of factory f over the
// backend and returns every worker's output gradient per iteration, plus
// the run report.
func runReducer(b comm.Backend, f sparsecoll.Factory, p, n, k, iters int) ([][][]float32, *comm.Report) {
	outs := make([][][]float32, iters)
	for it := range outs {
		outs[it] = make([][]float32, p)
	}
	rep := b.Run(p, func(rank int, ep comm.Endpoint) {
		r := f(p, rank, n, k)
		for it := 0; it < iters; it++ {
			outs[it][rank] = make([]float32, n)
			r.ReduceInto(ep, testGrad(rank, it, n), outs[it][rank])
			ep.SyncClock()
		}
	})
	return outs, rep
}

// testGrad builds a deterministic pseudo-random gradient for one worker
// and iteration: dense enough to exercise every encoding, with exact zero
// runs so the bitmap/delta formats both win sometimes.
func testGrad(rank, iter, n int) []float32 {
	rng := rand.New(rand.NewSource(int64(1000*iter + rank)))
	g := make([]float32, n)
	for i := range g {
		if rng.Intn(4) == 0 {
			continue // keep exact zeros
		}
		g[i] = float32(rng.NormFloat64())
	}
	return g
}

func equal32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
