package collective

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/livenet"
	"spardl/internal/simnet"
)

// coverageSentinel pre-fills every output vector: a signalling NaN with a
// payload no sum of denseGrad inputs produces and every codec path carries
// untouched, so an element the collective never writes shows up as itself
// and one it accumulates into (a stale output) turns into a NaN.
var coverageSentinel = math.Float32frombits(0x7fa5c3e1)

// TestDenseOutputCoverage holds both dense collectives to the contract that
// lets the reducer drop its input copy: the input is read where it lies and
// never written, and every element of out is overwritten with exactly the
// bits the copy-then-in-place schedule (reference_test.go) leaves. P runs
// over 1–9 (Rabenseifner at the powers of two), n over the empty vector,
// fewer elements than workers, one block per worker give or take one, and
// long odd lengths — on simnet, and for a subset on livenet, whose views
// come from real frames.
func TestDenseOutputCoverage(t *testing.T) {
	fabrics := []struct {
		name string
		new  func() comm.Backend
		ps   []int
		ns   func(p int) []int
	}{
		{"simnet", func() comm.Backend { return simnet.Backend(comm.Ethernet) },
			[]int{1, 2, 3, 4, 5, 6, 7, 8, 9},
			func(p int) []int { return []int{0, 1, p - 1, p, p + 1, 1000, 1<<12 + 3} }},
		{"livenet", livenet.NewBackend,
			[]int{1, 3, 4, 8},
			func(p int) []int { return []int{0, p + 1, 1000} }},
	}
	for _, fb := range fabrics {
		for _, p := range fb.ps {
			ns := fb.ns(p)
			slices.Sort(ns)
			ns = slices.Compact(ns)
			for _, ring := range []bool{true, false} {
				if !ring && p&(p-1) != 0 {
					continue
				}
				into, name := RingAllReduceInto, "ring"
				if !ring {
					into, name = RabenseifnerAllReduceInto, "rabenseifner"
				}
				for _, n := range ns {
					t.Run(fmt.Sprintf("%s/%s/P=%d/n=%d", fb.name, name, p, n), func(t *testing.T) {
						checkOutputCoverage(t, fb.new(), ring, into, p, n)
					})
				}
			}
		}
	}
}

func checkOutputCoverage(t *testing.T, backend comm.Backend, ring bool, into func(comm.Endpoint, []float32, []float32), p, n int) {
	grads, outs, wants := make([][]float32, p), make([][]float32, p), make([][]float32, p)
	backend.Run(p, func(rank int, ep comm.Endpoint) {
		grad := denseGrad(rank, 0, n)
		want := make([]float32, n)
		refDenseInto(ring, ep, grad, want)
		ep.SyncClock()
		out := make([]float32, n)
		for i := range out {
			out[i] = coverageSentinel
		}
		into(ep, grad, out)
		grads[rank], outs[rank], wants[rank] = grad, out, want
	})
	for rank := range p {
		sameFloatBits(t, fmt.Sprintf("rank %d out", rank), outs[rank], wants[rank])
		sameFloatBits(t, fmt.Sprintf("rank %d grad", rank), grads[rank], denseGrad(rank, 0, n))
	}
}

func sameFloatBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: element %d = %08x, copy-then-in-place oracle %08x", what, i, g, w)
		}
	}
}
