package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refAddInto is the scalar dense add AddInto replaced — the loop the reduce
// path carried in five places — kept as the oracle the kernel is held to.
func refAddInto(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

// addSpecials are bit patterns the kernel must add exactly as the scalar
// loop does: NaNs with distinct payloads and signs, both infinities, both
// zeros, denormals, the extremes of the finite range.
var addSpecials = []uint32{
	0x7fc00000, 0xffc00001, 0x7f800001, 0x7fbfffff, // quiet and signalling NaNs
	0x7f800000, 0xff800000, // ±Inf
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x807fffff, 0x00400000, // denormals
	0x7f7fffff, 0xff7fffff, 0x00800000, // ±MaxFloat32, smallest normal
}

// addInput returns n values: normals across many exponents with a special
// every few elements, so every lane of a group meets one over a sweep.
func addInput(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float32, n)
	for i := range x {
		if rng.Intn(5) == 0 {
			x[i] = math.Float32frombits(addSpecials[rng.Intn(len(addSpecials))])
			continue
		}
		x[i] = float32(rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20)))
	}
	return x
}

// sameSum reports whether the kernel's d + s agrees with the scalar loop's.
// Bits must match, except that when both operands are NaNs either one's
// quieted payload is the sum: which one survives is the instruction's
// operand order, which gc picks per lane and per build mode (the scalar
// loop and the kernel agree in an ordinary build and not under -race).
func sameSum(got, want, d, s float32) bool {
	g := math.Float32bits(got)
	if g == math.Float32bits(want) {
		return true
	}
	const quiet = 0x00400000
	return d != d && s != s && (g == math.Float32bits(d)|quiet || g == math.Float32bits(s)|quiet)
}

// checkAddInto runs the kernel and the oracle on copies of dst and src
// placed at the given offsets into their backing arrays, and requires
// the scalar loop's bits in dst (sameSum), an untouched src, and nothing
// written past len(src).
func checkAddInto(t *testing.T, dst0, src0 []float32, dOff, sOff int) {
	t.Helper()
	n := len(src0)
	want := append([]float32(nil), dst0...)
	refAddInto(want, src0)

	// One spare element past dst's end catches a write beyond len(src).
	dBuf := make([]float32, dOff+len(dst0)+1)
	dBuf[len(dBuf)-1] = -7
	dst := dBuf[dOff : dOff+len(dst0)]
	copy(dst, dst0)
	src := make([]float32, sOff+n)[sOff:]
	copy(src, src0)

	AddInto(dst, src)
	for i := range want {
		var s float32 // past len(src) dst must keep its bits
		if i < n {
			s = src0[i]
		}
		if !sameSum(dst[i], want[i], dst0[i], s) {
			t.Fatalf("n=%d offsets %d/%d: element %d is %08x, scalar %08x",
				n, dOff, sOff, i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
		}
	}
	if dBuf[len(dBuf)-1] != -7 {
		t.Fatalf("n=%d offsets %d/%d: wrote past dst", n, dOff, sOff)
	}
	for i := range src {
		if math.Float32bits(src[i]) != math.Float32bits(src0[i]) {
			t.Fatalf("n=%d offsets %d/%d: src changed at %d", n, dOff, sOff, i)
		}
	}
}

// TestAddIntoMatchesScalar: every length from 0 to 67 (no group, part of
// one, several, every tail length) and one past 2^17, at every offset
// mod 8 of either slice, with specials in every lane.
func TestAddIntoMatchesScalar(t *testing.T) {
	for n := 0; n <= 67; n++ {
		for dOff := 0; dOff < 8; dOff++ {
			for sOff := 0; sOff < 8; sOff++ {
				seed := int64(64*n + 8*dOff + sOff)
				checkAddInto(t, addInput(n, seed), addInput(n, ^seed), dOff, sOff)
			}
		}
	}
	const big = 1<<17 + 3
	dst, src := addInput(big, 1), addInput(big, 2)
	for off := 0; off < 8; off++ {
		checkAddInto(t, dst, src, off, (off+3)%8)
	}
}

// TestAddIntoLongerDst: dst may be longer than src; only its first
// len(src) elements change.
func TestAddIntoLongerDst(t *testing.T) {
	for _, n := range []int{0, 5, 8, 13, 64} {
		checkAddInto(t, addInput(n+9, int64(n)), addInput(n, int64(n)+100), 1, 2)
	}
}

// TestAddIntoSpecialPairs adds every special to every special in every
// lane position of a group and of the tail.
func TestAddIntoSpecialPairs(t *testing.T) {
	var dst, src []float32
	for _, a := range addSpecials {
		for _, b := range addSpecials {
			dst = append(dst, math.Float32frombits(a))
			src = append(src, math.Float32frombits(b))
		}
	}
	for shift := 0; shift < 8; shift++ {
		checkAddInto(t, dst[shift:], src[shift:], 0, 0)
	}
}

// TestAddIntoAliased: dst and src may be the same slice (x += x), or
// overlap at any shift; the kernel must read and write in the scalar
// loop's order. Every NaN here carries the payload the hardware gives
// Inf − Inf, so NaN + NaN has one answer whichever operand comes first.
func TestAddIntoAliased(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := inf - inf
	for _, n := range []int{0, 1, 7, 8, 9, 31, 67} {
		x := addInput(n, int64(n))
		for i, v := range x {
			if v != v {
				x[i] = nan
			}
		}
		want := append([]float32(nil), x...)
		refAddInto(want, want)
		got := append([]float32(nil), x...)
		AddInto(got, got)
		if !sameBits(got, want) {
			t.Fatalf("n=%d: x += x differs from the scalar loop", n)
		}
		for shift := 1; shift <= 9 && shift < n; shift++ {
			for _, dstAhead := range []bool{true, false} {
				want := append([]float32(nil), x...)
				got := append([]float32(nil), x...)
				if dstAhead {
					refAddInto(want[shift:], want[:n-shift])
					AddInto(got[shift:], got[:n-shift])
				} else {
					refAddInto(want[:n-shift], want[shift:])
					AddInto(got[:n-shift], got[shift:])
				}
				if !sameBits(got, want) {
					t.Fatalf("n=%d shift %d (dst ahead %v): overlapping add differs from the scalar loop", n, shift, dstAhead)
				}
			}
		}
	}
}

func sameBits(a, b []float32) bool {
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

// FuzzAddInto holds the kernel to the scalar loop on raw bit patterns:
// data is split into dst and src words at a fuzzed point, both placed at
// fuzzed offsets.
func FuzzAddInto(f *testing.F) {
	le := func(bits ...uint32) []byte {
		var b []byte
		for _, v := range bits {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f.Add(le(addSpecials...), uint8(7), uint8(0), uint8(3))
	f.Add(le(0x3f800000, 0xbf800000, 0x7fc00000, 0xffc00001, 0x00000001, 0x80000000, 0x7f800000, 0xff800000,
		0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000), uint8(8), uint8(5), uint8(2))
	f.Add(le(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20), uint8(10), uint8(1), uint8(7))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, split, dOff, sOff uint8) {
		words := make([]float32, len(data)/4)
		for i := range words {
			words[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		cut := int(split)
		if cut > len(words) {
			cut = len(words)
		}
		// dst is the first `cut` words, src the rest truncated to dst's
		// length: both halves come from the same raw bytes.
		dst, src := words[:cut], words[cut:]
		if len(src) > len(dst) {
			src = src[:len(dst)]
		}
		checkAddInto(t, dst, src, int(dOff%8), int(sOff%8))
	})
}

var addSink float32

// BenchmarkAddInto: the scalar loop against the kernel, L2-hot (one pair
// of 64 KiB vectors added again and again) and cold (fourteen pairs of
// 1 MiB vectors, the `sync-sim-1m` shape of fourteen workers' residuals,
// walked in turn so each add streams from memory).
func BenchmarkAddInto(b *testing.B) {
	for _, shape := range []struct {
		name    string
		n, vecs int
	}{
		{"hot/n=16384", 1 << 14, 1},
		{"cold/14x262144", 1 << 18, 14},
	} {
		dsts, srcs := make([][]float32, shape.vecs), make([][]float32, shape.vecs)
		for v := range dsts {
			dsts[v] = make([]float32, shape.n)
			srcs[v] = make([]float32, shape.n)
			for i := range srcs[v] {
				srcs[v][i] = float32(i%7) - 3 // finite over any b.N
			}
		}
		for _, impl := range []struct {
			name string
			add  func(dst, src []float32)
		}{
			{"scalar", refAddInto},
			{"kernel", AddInto},
		} {
			b.Run(fmt.Sprintf("%s/%s", impl.name, shape.name), func(b *testing.B) {
				b.SetBytes(int64(4 * shape.n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v := i % shape.vecs
					impl.add(dsts[v], srcs[v])
				}
				addSink = dsts[0][0]
			})
		}
	}
}
