package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The branchy ReLU loops ReLU ran before it selected on bits, kept as the
// oracle: refReLU writes only where v > 0 (dst starts zeroed), and
// refReLUGrad adds only there.

func refReLU(dst, src []float32) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		}
	}
}

func refReLUGrad(grad, g, x []float32) {
	for i := range g {
		if x[i] > 0 {
			grad[i] += g[i]
		}
	}
}

// reluSpecials are the bit patterns at every edge of "x > 0": both zeros,
// the denormals' ends, the smallest normals, the largest finites, both
// infinities and NaN payloads of both signs, quiet and signalling.
var reluSpecials = []uint32{
	0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007fffff, 0x807fffff,
	0x00800000, 0x80800000, 0x3f800000, 0xbf800000, 0x7f7fffff, 0xff7fffff,
	0x7f800000, 0xff800000, 0x7f800001, 0xff800001, 0x7fc00000, 0xffc00000,
	0x7fc0dead, 0x7fffffff, 0xffffffff,
}

// checkReLU runs both ReLU loops and their oracles on one input. The
// backward sum keeps its exact bits except where x > 0 and both results
// are NaN: which operand's payload an add keeps is the compiler's choice.
func checkReLU(t testing.TB, x, grad, g []float32) {
	t.Helper()
	got, want := make([]float32, len(x)), make([]float32, len(x))
	for i := range got {
		got[i] = float32(math.NaN()) // reluInto writes every element
	}
	reluInto(got, x)
	refReLU(want, x)
	for i := range x {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("forward of %#08x = %#08x, oracle %#08x", math.Float32bits(x[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	got, want = slices.Clone(grad), slices.Clone(grad)
	reluGradInto(got, g, x)
	refReLUGrad(want, g, x)
	for i := range x {
		bothNaN := got[i] != got[i] && want[i] != want[i]
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(x[i] > 0 && bothNaN) {
			t.Fatalf("backward at x = %#08x: %#08x + %#08x = %#08x, oracle %#08x", math.Float32bits(x[i]),
				math.Float32bits(grad[i]), math.Float32bits(g[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

func TestReLUMatchesBranchyReference(t *testing.T) {
	// Every special as x against every special as the old gradient and as
	// the incoming one.
	n := len(reluSpecials)
	x, grad, g := make([]float32, n*n*n), make([]float32, n*n*n), make([]float32, n*n*n)
	for i := range x {
		x[i] = math.Float32frombits(reluSpecials[i%n])
		grad[i] = math.Float32frombits(reluSpecials[i/n%n])
		g[i] = math.Float32frombits(reluSpecials[i/(n*n)])
	}
	checkReLU(t, x, grad, g)

	// Random bit patterns and random activations, at lengths around the
	// loops' ends.
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, 7, 8, 9, 1000} {
		bits := func() []float32 {
			v := make([]float32, n)
			for i := range v {
				v[i] = math.Float32frombits(rng.Uint32())
			}
			return v
		}
		checkReLU(t, bits(), bits(), bits())
		checkReLU(t, heavyTailed(rng, n), heavyTailed(rng, n), heavyTailed(rng, n))
	}
}

// FuzzReLU holds both ReLU loops to the branchy oracle on raw bits.
func FuzzReLU(f *testing.F) {
	for _, b := range reluSpecials {
		f.Add(b, uint32(0x3f800000), uint32(0x80000000))
	}
	f.Fuzz(func(t *testing.T, x, grad, g uint32) {
		checkReLU(t, []float32{math.Float32frombits(x)}, []float32{math.Float32frombits(grad)}, []float32{math.Float32frombits(g)})
	})
}
