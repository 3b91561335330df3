package comm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

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
			v, rest, err := readPayloadArena(a, frame)
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
		into, a := vecSentinel(len(ref)), vecPreload(len(ref))
		read().(Vec).SumTo(into, a)
		sameBits(t, what+" SumTo", into, refSum)
		sameBits(t, what+" SumTo's input", a, vecPreload(len(ref)))
		read().(Vec).SumTo(a, a)
		sameBits(t, what+" SumTo onto its input", a, refSum)
		for _, memmove := range copyPaths() {
			cp := vecSentinel(len(ref))
			restore := SetVecZeroCopy(memmove)
			read().(Vec).CopyTo(cp)
			restore()
			sameBits(t, fmt.Sprintf("%s CopyTo (memmove=%v)", what, memmove), cp, ref)
		}
	}
}

// copyPaths are the CopyTo paths the host can run: the decode loop
// everywhere, the memmove where a float32's memory is its wire encoding.
func copyPaths() []bool {
	if vecZeroCopy {
		return []bool{false, true}
	}
	return []bool{false}
}

// vecSentinel returns n copies of a NaN payload no consumer produces from
// vecInput and vecPreload, so an element a consumer fails to write keeps
// it and shows up against the reference.
func vecSentinel(n int) []float32 {
	dst := make([]float32, n)
	for i := range dst {
		dst[i] = math.Float32frombits(0x7fa5c3e1)
	}
	return dst
}

// vecLengths are the differentials' vector lengths: every tail length of
// the eight-wide loops on short vectors, and one long odd one.
func vecLengths() []int {
	lengths := []int{1<<17 + 3}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	return lengths
}

func TestVecCodecMatchesReference(t *testing.T) {
	for _, n := range vecLengths() {
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

// TestVecViewMatchesEncode holds the zero-copy send path to the encoding
// one: on a little-endian host, f32Bytes(x) — x's own memory, which Send
// lends to the link — must be exactly the bytes putFloat32s stores, and
// appendVecHeader followed by it exactly the reference frame. The vector
// starts at every element offset mod 8 of its backing array, so the view
// and the encode destination start at every alignment the loops meet.
func TestVecViewMatchesEncode(t *testing.T) {
	if !vecZeroCopy {
		t.Skip("big-endian host: Send encodes every Vec, there is no view to check")
	}
	for _, n := range vecLengths() {
		backing := vecInput(n+8, int64(n))
		for off := 0; off < 8; off++ {
			x := backing[off : off+n]
			view := f32Bytes(x)
			if len(view) != 4*n || (n > 0 && &view[0] != (*byte)(unsafe.Pointer(&x[0]))) {
				t.Fatalf("n=%d offset %d: the view is %d bytes, not x's own %d", n, off, len(view), 4*n)
			}
			enc := make([]byte, 4*n+off)[off:]
			putFloat32s(enc, x)
			if !bytes.Equal(view, enc) {
				t.Fatalf("n=%d offset %d: the view differs from putFloat32s", n, off)
			}
			frame := append(appendVecHeader(bytes.Repeat([]byte{0xEE}, off), n)[off:], view...)
			if !bytes.Equal(frame, refAppendFloat32s(nil, tagVec, x)) {
				t.Fatalf("n=%d offset %d: header + view differs from the reference frame", n, off)
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
	// Every consumer refuses a destination, or a SumTo input, whose length
	// is not the view's three elements: the ranks' schedules disagree. An
	// unsent Vec is a view of no elements.
	n := func(k int) []float32 { return make([]float32, k) }
	for _, c := range []struct {
		name    string
		consume func(Vec)
	}{
		{"AddTo into 4", func(v Vec) { v.AddTo(n(4)) }},
		{"CopyTo into 4", func(v Vec) { v.CopyTo(n(4)) }},
		{"SumTo into 4", func(v Vec) { v.SumTo(n(4), n(4)) }},
		{"SumTo of 4 into 3", func(v Vec) { v.SumTo(n(3), n(4)) }},
		{"SumTo of 2 into 3", func(v Vec) { v.SumTo(n(3), n(2)) }},
		{"SumTo of nil into 3", func(v Vec) { v.SumTo(n(3), nil) }},
	} {
		for _, v := range []Vec{{wire: make([]byte, 12)}, {F: n(3)}} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "schedule mismatch") {
						t.Errorf("%s (view of %d bytes): panic %q, want a schedule mismatch", c.name, len(v.wire), msg)
					}
				}()
				c.consume(v)
			}()
		}
	}
}

// FuzzVecRoundTrip feeds raw bytes to the decoder. Nothing may panic; on a
// dense-vector tag the decoder must accept exactly what the reference
// accepts, read the same values every way, and re-encode them to the
// reference's bytes; on a chunk or chunk-bag tag the heap and arena
// decodes must agree entry for entry on valid chunks.
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
	deltaC, _, _, denseC, emptyC := pinChunks()
	for _, v := range []any{deltaC, denseC, emptyC, []*sparse.Chunk{deltaC, denseC, emptyC}} {
		good := MarshalPayload(v)
		f.Add(good)
		f.Add(good[:len(good)/2])
		f.Add(append(good, good...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, _, err := readPayloadArena(nil, data)
		vArena, _, errArena := readPayloadArena(sparse.NewArena(), data)
		if (err == nil) != (errArena == nil) {
			t.Fatalf("arena decode disagrees with heap decode: %v vs %v", errArena, err)
		}
		if len(data) > 0 && (data[0] == tagChunk || data[0] == tagChunks) {
			if err == nil {
				checkChunks(t, v, vArena)
			}
			return
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

// checkChunks requires a decoded chunk or chunk bag to hold valid chunks,
// the same from the heap and the arena decode.
func checkChunks(t *testing.T, heap, arena any) {
	t.Helper()
	hs, ok := heap.([]*sparse.Chunk)
	as, _ := arena.([]*sparse.Chunk)
	if !ok {
		hs, as = []*sparse.Chunk{heap.(*sparse.Chunk)}, []*sparse.Chunk{arena.(*sparse.Chunk)}
	}
	if len(hs) != len(as) {
		t.Fatalf("heap decode holds %d chunks, arena decode %d", len(hs), len(as))
	}
	for i, c := range hs {
		if err := c.Validate(); err != nil {
			t.Fatalf("chunk %d decoded invalid: %v", i, err)
		}
		if err := sameChunk(as[i], c); err != nil {
			t.Fatalf("chunk %d: arena decode differs from heap decode: %v", i, err)
		}
	}
}

var vecSink []byte

// BenchmarkVecCodec times what a dense element crosses: the encode from the
// sender's vector (a big-endian host's send path), and the three consumers
// straight from wire bytes — accumulate (AddTo), sum with an input vector
// (SumTo) and copy (CopyTo: one memmove on a little-endian host, the
// decode loop otherwise, timed alone as "decode"). Steady state allocates
// nothing.
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
			{"sum", func() { view.SumTo(dst, x) }},
			{"copy", func() { view.CopyTo(dst) }},
			{"decode", func() { loadFloat32s(dst, view.wire) }},
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
