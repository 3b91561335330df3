package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The scalar loops Add, AddRow and SGD.StepScaled ran before their passes
// had an AVX2 path, kept as the oracle. AddRow's bias gradient walks the
// rows in order, so each column sums them top to bottom.

func refAdd(out, a, b []float32) {
	for i := range out {
		out[i] = a[i] + b[i]
	}
}

func refAccum(grad, g []float32) {
	for i := range g {
		grad[i] += g[i]
	}
}

func refAddRow(out, a, b []float32, r, c int) {
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out[i*c+j] = a[i*c+j] + b[j]
		}
	}
}

func refAddRowBiasGrad(bGrad, g []float32, r, c int) {
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			bGrad[j] += g[i*c+j]
		}
	}
}

func refMomentumStep(w, vel, g []float32, mu, scale, lr float32) {
	for i, gv := range g {
		v := mu*vel[i] + float32(gv*scale)
		vel[i] = v
		w[i] -= lr * v
	}
}

// withSpecials draws heavy-tailed values with about one in four replaced
// by a reluSpecials pattern: both zeros, denormals, infinities and NaN
// payloads.
func withSpecials(rng *rand.Rand, n int) []float32 {
	v := heavyTailed(rng, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = math.Float32frombits(reluSpecials[rng.Intn(len(reluSpecials))])
		}
	}
	return v
}

// checkOp fails t naming the path, the op and the shape when got and want
// differ as bits.
func checkOp(t *testing.T, p *kernels, op string, r, c int, got, want []float32) {
	t.Helper()
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("%s %s %dx%d: element %d = %#08x, oracle %#08x", pathName(p), op, r, c, i,
			math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
}

// TestAddMatchesScalarReference runs Add and AddRow forward and backward
// on every path this host has against the scalar loops, with every
// gradient pre-loaded (other uses of a tensor have already written it).
func TestAddMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	param := func(r, c int, v []float32) *Tensor {
		p := NewParam(r, c, func(i int) float32 { return v[i] })
		p.Grad = withSpecials(rng, r*c)
		return p
	}
	for trial := 0; trial < 60; trial++ {
		r, c := rowDims[rng.Intn(len(rowDims))], kernelDims[rng.Intn(len(kernelDims))]
		if trial%15 == 0 {
			r, c = 32, 192 // the ResMLP layer
		}
		x, y, bias, og := withSpecials(rng, r*c), withSpecials(rng, r*c), withSpecials(rng, c), withSpecials(rng, r*c)
		for _, p := range hostPaths() {
			a, b, row := param(r, c, x), param(r, c, y), param(1, c, bias)
			wantA, wantB, wantRow := slices.Clone(a.Grad), slices.Clone(b.Grad), slices.Clone(row.Grad)
			want := make([]float32, r*c)
			onPath(p, func() {
				out := Add(a, b)
				refAdd(want, x, y)
				checkOp(t, p, "Add forward", r, c, out.Data, want)
				out.Grad = og
				out.back()
				refAccum(wantA, og)
				refAccum(wantB, og)
				checkOp(t, p, "Add dA", r, c, a.Grad, wantA)
				checkOp(t, p, "Add dB", r, c, b.Grad, wantB)

				out = AddRow(a, row)
				refAddRow(want, x, bias, r, c)
				checkOp(t, p, "AddRow forward", r, c, out.Data, want)
				out.Grad = og
				out.back()
				refAccum(wantA, og)
				refAddRowBiasGrad(wantRow, og, r, c)
				checkOp(t, p, "AddRow dA", r, c, a.Grad, wantA)
				checkOp(t, p, "AddRow bias gradient", r, c, row.Grad, wantRow)
			})
		}
	}
}

// checkStepKernels runs the momentum, add and accumulate passes on every
// path this host has, and their scalar loops, on operands of one length
// placed at element offset off.
func checkStepKernels(t testing.TB, off int, w, vel, g, a, b []float32, mu, scale, lr float32) {
	t.Helper()
	n := len(w)
	wantW, wantVel := slices.Clone(w), slices.Clone(vel)
	refMomentumStep(wantW, wantVel, g, mu, scale, lr)
	wantSum := make([]float32, n)
	refAdd(wantSum, a, b)
	wantAcc := slices.Clone(a)
	refAccum(wantAcc, g)
	g, _ = placed(g, off)
	a, _ = placed(a, off)
	b, _ = placed(b, off)
	stale := make([]float32, n)
	for i := range stale {
		stale[i] = float32(math.NaN()) // addInto writes every element
	}
	for _, p := range hostPaths() {
		gotW, intactW := placed(w, off)
		gotVel, intactVel := placed(vel, off)
		sum, intactSum := placed(stale, off)
		acc, intactAcc := placed(a, off)
		onPath(p, func() {
			momentumStep(gotW, gotVel, g, mu, scale, lr)
			addInto(sum, a, b)
			accumInto(acc, g)
		})
		for _, k := range []struct {
			name      string
			got, want []float32
			intact    func() bool
		}{
			{"momentum w", gotW, wantW, intactW},
			{"momentum velocity", gotVel, wantVel, intactVel},
			{"add", sum, wantSum, intactSum},
			{"accumulate", acc, wantAcc, intactAcc},
		} {
			if i := sameBits(k.got, k.want); i >= 0 {
				t.Fatalf("%s %s, length %d at offset %d: element %d = %#08x, oracle %#08x", pathName(p), k.name, n, off, i,
					math.Float32bits(k.got[i]), math.Float32bits(k.want[i]))
			}
			if !k.intact() {
				t.Fatalf("%s %s, length %d at offset %d: wrote outside its output", pathName(p), k.name, n, off)
			}
		}
	}
}

func TestStepKernelsMatchScalarLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 40, 192, 1000} {
		for _, s := range [][3]float32{{0.9, 0.25, 0.05}, {0.9, 1, 0.1}, {0.5, 1.0 / 3, 3}} {
			v := func() []float32 { return withSpecials(rng, n) }
			checkStepKernels(t, rng.Intn(8), v(), v(), v(), v(), v(), s[0], s[1], s[2])
			h := func() []float32 { return heavyTailed(rng, n) }
			checkStepKernels(t, rng.Intn(8), h(), h(), h(), h(), h(), s[0], s[1], s[2])
		}
	}
}

// FuzzStepKernels holds the momentum, add and accumulate passes, on every
// path this host has, to their scalar loops on raw bits: five operands
// cut from the bytes, 1–40 elements long, at offsets 0–7.
func FuzzStepKernels(f *testing.F) {
	f.Add(uint8(17), uint8(3), float32(0.9), float32(0.25), float32(0.05), []byte("momentum SGD, eight lanes wide"))
	f.Add(uint8(8), uint8(0), float32(0.9), float32(1), float32(0.1), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80, 0, 0, 0xc0, 0x7f, 1, 0, 0, 0})
	f.Add(uint8(1), uint8(7), float32(0.5), float32(1.0/3), float32(3), []byte{})
	f.Fuzz(func(t *testing.T, nb, ob uint8, mu, scale, lr float32, raw []byte) {
		n, fill := int(nb%40)+1, rawFill(raw)
		checkStepKernels(t, int(ob%8), fill(n), fill(n), fill(n), fill(n), fill(n), mu, scale, lr)
	})
}
