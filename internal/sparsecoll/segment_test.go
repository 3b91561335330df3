package sparsecoll

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/livenet"
	"spardl/internal/simnet"
	"spardl/internal/wire"
)

// segGrad builds a deterministic per-worker gradient.
func segGrad(n, rank, iter int) []float32 {
	rng := rand.New(rand.NewSource(int64(1000*rank + iter + 5)))
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	return g
}

// TestSegmentMatchesStandaloneRun: a SegmentReducer over [lo,hi) must
// produce, over multiple iterations, exactly what the base factory produces
// on the sub-vector as a standalone problem — residual state included.
func TestSegmentMatchesStandaloneRun(t *testing.T) {
	const (
		p          = 4
		n          = 1200
		lo, hi     = 400, 1000
		k          = 24
		iterations = 3
	)
	for name, base := range map[string]Factory{"topka": NewTopkA, "gtopk": NewGTopk} {
		seg := make([][]float32, iterations)
		alone := make([][]float32, iterations)
		simnet.Run(p, comm.Ethernet, func(rank int, ep *simnet.Endpoint) {
			r := NewSegment(base, p, rank, lo, hi, k)
			out := make([]float32, n)
			for it := 0; it < iterations; it++ {
				flat := segGrad(n, rank, it)
				r.ReduceInto(ep, flat[lo:hi], out)
				if rank == 0 {
					seg[it] = append([]float32(nil), out[lo:hi]...)
				}
				ep.SyncClock()
			}
		})
		simnet.Run(p, comm.Ethernet, func(rank int, ep *simnet.Endpoint) {
			r := base(p, rank, hi-lo, k)
			for it := 0; it < iterations; it++ {
				flat := segGrad(n, rank, it)
				got := reduce(r, ep, flat[lo:hi])
				if rank == 0 {
					alone[it] = got
				}
				ep.SyncClock()
			}
		})
		for it := range seg {
			for i := range seg[it] {
				if seg[it][i] != alone[it][i] {
					t.Fatalf("%s iter %d: segment result differs at %d: %g vs %g",
						name, it, i, seg[it][i], alone[it][i])
				}
			}
		}
	}
}

// TestSegmentLeavesRestOfOutputUntouched: ReduceInto writes out[Lo:Hi) of
// the full-length out and nothing else — what pipeline.Schedule.Run
// assembles the global gradient on. Two segments reduce into one vector
// filled with a NaN payload no reduction produces: every position inside
// a segment must be written, and every position outside both must keep
// the sentinel's bits, on simnet and on livenet.
func TestSegmentLeavesRestOfOutputUntouched(t *testing.T) {
	const p, n, sentinel = 2, 300, 0x7fc0dead
	segs := [][2]int{{40, 100}, {180, 260}}
	inside := func(i int) bool {
		for _, s := range segs {
			if i >= s[0] && i < s[1] {
				return true
			}
		}
		return false
	}
	for _, b := range []comm.Backend{simnet.Backend(comm.Ethernet), livenet.NewBackend()} {
		outs := make([][]float32, p)
		b.Run(p, func(rank int, ep comm.Endpoint) {
			out := make([]float32, n)
			for i := range out {
				out[i] = math.Float32frombits(sentinel)
			}
			flat := segGrad(n, rank, 0)
			for _, s := range segs {
				NewSegment(NewTopkA, p, rank, s[0], s[1], 5).ReduceInto(ep, flat[s[0]:s[1]], out)
			}
			outs[rank] = out
		})
		for rank, out := range outs {
			for i, v := range out {
				if kept := math.Float32bits(v) == sentinel; kept == inside(i) {
					t.Errorf("%s rank %d index %d: inside a segment %v, sentinel kept %v",
						b.Name(), rank, i, inside(i), kept)
				}
			}
		}
	}
}

// TestSegmentClampsBudget: k is clamped into [1, hi−lo] so proportional
// bucket shares that round to 0 (tiny bias tensors) still work.
func TestSegmentClampsBudget(t *testing.T) {
	r := NewSegment(NewTopkA, 2, 0, 10, 14, 0)
	if r.K != 1 {
		t.Fatalf("k=0 clamped to %d, want 1", r.K)
	}
	r = NewSegment(NewTopkA, 2, 0, 10, 14, 99)
	if r.K != 4 {
		t.Fatalf("k=99 clamped to %d, want 4", r.K)
	}
	if !strings.Contains(r.Name(), "[10:14)") {
		t.Fatalf("name %q does not carry the range", r.Name())
	}
}

// TestTunedLeavesDenseUnchanged: wrapping a reducer without sparse
// messages must return it as-is instead of panicking — dense baselines ride
// along in wire-mode method lists.
func TestTunedLeavesDenseUnchanged(t *testing.T) {
	f := Tuned(NewDense, wire.ModeNegotiated)
	r := f(2, 0, 100, 10)
	if r.Name() != "Dense" {
		t.Fatalf("dense reducer renamed: %q", r.Name())
	}
	outs := make([][]float32, 2)
	simnet.Run(2, comm.Ethernet, func(rank int, ep *simnet.Endpoint) {
		outs[rank] = reduce(f(2, rank, 100, 10), ep, segGrad(100, rank, 0))
	})
	for i := range outs[0] {
		if outs[0][i] != outs[1][i] {
			t.Fatalf("replicas disagree at %d", i)
		}
	}
}
