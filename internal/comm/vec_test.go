package comm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spardl/internal/sparse"
)

// The unrolled dense-vector loops of vec.go against the scalar loops they
// replaced (payload_reference_test.go). Everything is compared by
// Float32bits: NaN payloads, the sign of zero and denormals must cross the
// codec untouched, and an accumulate must add exactly once, in place.

// vecSpecials are the bit patterns a value-based comparison would let
// through: quiet and signalling NaNs with payloads, both zeros, both
// infinities, the smallest and largest denormals, the largest finite.
var vecSpecials = []uint32{
	0x7fc00001, 0xffc12345, 0x7f800001, 0xffbfffff, 0x00000000, 0x80000000,
	0x7f800000, 0xff800000, 0x00000001, 0x807fffff, 0x7f7fffff, 0x3f800000,
}

// vecInput returns n elements: every third a special, the rest random
// finite values.
func vecInput(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float32, n)
	for i := range x {
		if i%3 == 0 {
			x[i] = math.Float32frombits(vecSpecials[rng.Intn(len(vecSpecials))])
		} else {
			x[i] = float32(rng.NormFloat64())
		}
	}
	return x
}

// vecPreload fills an accumulator with NaN-free values (a NaN on both sides
// of an addition lets the instruction's operand order pick the payload),
// including −0 and both infinities so the sums hit −0+0 and Inf−Inf.
func vecPreload(n int) []float32 {
	dst := make([]float32, n)
	for i := range dst {
		switch i % 5 {
		case 0:
			dst[i] = float32(math.Copysign(0, -1))
		case 1:
			dst[i] = float32(math.Inf(1 - 2*(i%2)))
		default:
			dst[i] = float32(i) - 3.5
		}
	}
	return dst
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: element %d = %08x, reference %08x", what, i, g, w)
		}
	}
}

// checkAgainstReference decodes frame — one dense-vector payload, possibly
// followed by more bytes — with and without an arena and holds every way of
// reading it to the reference decode of the same bytes.
func checkAgainstReference(t *testing.T, frame []byte) {
	t.Helper()
	tag := frame[0]
	ref, refRest, err := refReadFloat32s(frame, tag)
	if err != nil {
		t.Fatalf("reference rejects the frame: %v", err)
	}
	refSum := vecPreload(len(ref))
	for i, v := range ref {
		refSum[i] += v
	}
	for _, a := range []*sparse.Arena{nil, sparse.NewArena()} {
		what := fmt.Sprintf("tag 0x%02x n=%d arena=%v", tag, len(ref), a != nil)
		read := func() any {
			v, rest, err := ReadPayloadArena(a, frame)
			if err != nil || len(rest) != len(refRest) {
				t.Fatalf("%s: decode left %d bytes (reference %d), err %v", what, len(rest), len(refRest), err)
			}
			return v
		}
		if tag == tagFloat32s {
			sameBits(t, what+" decode", read().([]float32), ref)
			continue
		}
		sum := vecPreload(len(ref))
		read().(Vec).AddTo(sum)
		sameBits(t, what+" AddTo", sum, refSum)
		cp := vecPreload(len(ref))
		read().(Vec).CopyTo(cp)
		sameBits(t, what+" CopyTo", cp, ref)
	}
}

func TestVecCodecMatchesReference(t *testing.T) {
	lengths := []int{1<<17 + 3}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		x := vecInput(n, int64(n))
		for _, tag := range []byte{tagFloat32s, tagVec} {
			var payload any = x
			if tag == tagVec {
				payload = Vec{F: x}
			}
			want := refAppendFloat32s(nil, tag, x)
			// Encode behind 0–7 bytes already in the buffer, so the body
			// starts at every offset mod 8, and decode it from there.
			for off := 0; off < 8; off++ {
				buf := AppendPayload(bytes.Repeat([]byte{0xEE}, off), payload)
				if !bytes.Equal(buf[off:], want) || !bytes.Equal(buf[:off], bytes.Repeat([]byte{0xEE}, off)) {
					t.Fatalf("tag 0x%02x n=%d offset %d: encoding differs from the reference", tag, n, off)
				}
				checkAgainstReference(t, buf[off:])
			}
		}
	}
}

// TestVecRejectsMalformedFrames: a truncated body, a count larger than the
// body, trailing bytes and a flipped tag are errors with or without an
// arena — never a panic, an over-read or a short vector.
func TestVecRejectsMalformedFrames(t *testing.T) {
	for _, tag := range []byte{tagFloat32s, tagVec} {
		for _, n := range []int{1, 9, 67} {
			good := refAppendFloat32s(nil, tag, vecInput(n, 1))
			bad := map[string][]byte{
				"trailing byte":   append(append([]byte(nil), good...), 0),
				"flipped tag":     append([]byte{tag ^ 0xFF}, good[1:]...),
				"count over body": append([]byte{tag, byte(n + 1)}, good[2:]...),
			}
			for cut := 0; cut < len(good); cut++ {
				bad[fmt.Sprintf("cut at %d", cut)] = good[:cut]
			}
			for name, buf := range bad {
				for _, a := range []*sparse.Arena{nil, sparse.NewArena()} {
					if v, err := UnmarshalPayloadArena(a, buf); err == nil {
						t.Errorf("tag 0x%02x n=%d %s (arena %v): decoded %T without error", tag, n, name, a != nil, v)
					}
				}
			}
		}
	}
	for _, v := range []Vec{{F: make([]float32, 3)}, {wire: make([]byte, 12)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a 3-element view consumed into 4 elements did not panic")
				}
			}()
			v.AddTo(make([]float32, 4))
		}()
	}
}

// FuzzVecRoundTrip feeds raw bytes to the decoder. Nothing may panic; on a
// dense-vector tag the decoder must accept exactly what the reference
// accepts, read the same values every way, and re-encode them to the
// reference's bytes.
func FuzzVecRoundTrip(f *testing.F) {
	for _, n := range []int{0, 1, 7, 8, 9, 67} {
		for _, tag := range []byte{tagFloat32s, tagVec} {
			good := refAppendFloat32s(nil, tag, vecInput(n, 7))
			f.Add(good)
			f.Add(good[:len(good)/2])
			f.Add(append(good, good...))
		}
	}
	f.Add([]byte{tagVec, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, err := ReadPayloadArena(nil, data)
		_, _, errArena := ReadPayloadArena(sparse.NewArena(), data)
		if (err == nil) != (errArena == nil) {
			t.Fatalf("arena decode disagrees with heap decode: %v vs %v", errArena, err)
		}
		if len(data) == 0 || (data[0] != tagVec && data[0] != tagFloat32s) {
			return
		}
		ref, _, refErr := refReadFloat32s(data, data[0])
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder: %v, reference: %v", err, refErr)
		}
		if err != nil {
			return
		}
		checkAgainstReference(t, data)
		var payload any = ref
		if data[0] == tagVec {
			payload = Vec{F: ref}
		}
		if !bytes.Equal(MarshalPayload(payload), refAppendFloat32s(nil, data[0], ref)) {
			t.Fatalf("re-encoding %d elements differs from the reference", len(ref))
		}
	})
}

var vecSink []byte

// BenchmarkVecCodec times the three loops a dense element crosses: encode
// from the sender's vector, and accumulate / copy straight from wire bytes.
// Steady state allocates nothing.
func BenchmarkVecCodec(b *testing.B) {
	for _, n := range []int{1 << 15, 1 << 17} {
		x := vecInput(n, 1)
		for i := range x {
			if x[i] != x[i] || math.IsInf(float64(x[i]), 0) {
				x[i] = 1 // keep the accumulator finite over b.N additions
			}
		}
		var payload any = Vec{F: x}
		frame := MarshalPayload(payload)
		view := Vec{wire: frame[len(frame)-4*n:]}
		dst := make([]float32, n)
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"encode", func() { vecSink = AppendPayload(vecSink[:0], payload) }},
			{"accumulate", func() { view.AddTo(dst) }},
			{"copy", func() { view.CopyTo(dst) }},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", op.name, n), func(b *testing.B) {
				b.SetBytes(int64(4 * n))
				b.ReportAllocs()
				op.run() // size the encode buffer outside the timed loop
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op.run()
				}
			})
		}
	}
}
