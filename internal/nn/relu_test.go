package nn

import (
	"encoding/binary"
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

// checkReLU runs both ReLU passes on every path this host has, and their
// oracles, on one input whose operands sit at element offset off. The
// backward sum keeps its exact bits except where x > 0 and both results
// are NaN: which operand's payload an add keeps is the compiler's choice.
func checkReLU(t testing.TB, off int, x, grad, g []float32) {
	t.Helper()
	wantF := make([]float32, len(x))
	refReLU(wantF, x)
	wantB := slices.Clone(grad)
	refReLUGrad(wantB, g, x)
	stale := make([]float32, len(x))
	for i := range stale {
		stale[i] = float32(math.NaN()) // reluInto writes every element
	}
	x, _ = placed(x, off)
	g, _ = placed(g, off)
	for _, p := range hostPaths() {
		got, intact := placed(stale, off)
		onPath(p, func() { reluInto(got, x) })
		for i := range x {
			if math.Float32bits(got[i]) != math.Float32bits(wantF[i]) {
				t.Fatalf("%s forward at offset %d, element %d of %d: relu(%#08x) = %#08x, oracle %#08x", pathName(p), off, i, len(x),
					math.Float32bits(x[i]), math.Float32bits(got[i]), math.Float32bits(wantF[i]))
			}
		}
		if !intact() {
			t.Fatalf("%s forward at offset %d, length %d: wrote outside its output", pathName(p), off, len(x))
		}
		got, intact = placed(grad, off)
		onPath(p, func() { reluGradInto(got, g, x) })
		for i := range x {
			bothNaN := got[i] != got[i] && wantB[i] != wantB[i]
			if math.Float32bits(got[i]) != math.Float32bits(wantB[i]) && !(x[i] > 0 && bothNaN) {
				t.Fatalf("%s backward at offset %d, element %d of %d, x = %#08x: %#08x + %#08x = %#08x, oracle %#08x",
					pathName(p), off, i, len(x), math.Float32bits(x[i]),
					math.Float32bits(grad[i]), math.Float32bits(g[i]), math.Float32bits(got[i]), math.Float32bits(wantB[i]))
			}
		}
		if !intact() {
			t.Fatalf("%s backward at offset %d, length %d: wrote outside its gradient", pathName(p), off, len(x))
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
	checkReLU(t, 0, x, grad, g)
	checkReLU(t, 5, x, grad, g)

	// Random bit patterns and random activations, at lengths around the
	// eight-wide body's ends and every alignment.
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 1000} {
		bits := func() []float32 {
			v := make([]float32, n)
			for i := range v {
				v[i] = math.Float32frombits(rng.Uint32())
			}
			return v
		}
		checkReLU(t, rng.Intn(8), bits(), bits(), bits())
		checkReLU(t, rng.Intn(8), heavyTailed(rng, n), heavyTailed(rng, n), heavyTailed(rng, n))
	}
}

// FuzzReLU holds both ReLU passes, on every path this host has, to the
// branchy oracle on raw bits: x, the old gradient and the incoming one are
// cut from the bytes, 1–40 elements long, at offsets 0–7. Each seed starts
// the specials at a different one.
func FuzzReLU(f *testing.F) {
	for i := range reluSpecials {
		var raw []byte
		for _, b := range slices.Concat(reluSpecials[i:], reluSpecials[:i]) {
			raw = binary.LittleEndian.AppendUint32(raw, b)
		}
		f.Add(uint8(8+i), uint8(i), raw)
	}
	f.Fuzz(func(t *testing.T, nb, ob uint8, raw []byte) {
		n, fill := int(nb%40)+1, rawFill(raw)
		checkReLU(t, int(ob%8), fill(n), fill(n), fill(n))
	})
}
