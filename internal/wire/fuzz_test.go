package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"spardl/internal/sparse"
)

// FuzzDecode checks that DecodeArena never panics, never returns an invalid
// chunk, and that anything it accepts re-encodes to a buffer it accepts
// again with identical content (decode/encode/decode fixpoint).
func FuzzDecode(f *testing.F) {
	c := &sparse.Chunk{Idx: []int32{2, 5, 9, 100}, Val: []float32{1, -2, 3.5, 0.25}}
	f.Add(AppendCOO(nil, c, 0, 128))
	f.Add(AppendDelta(nil, c, 0, 128))
	f.Add(AppendBitmap(nil, c, 0, 128))
	dense := (*sparse.Arena)(nil).GetDense(16, 48)
	for i := range dense.Val {
		dense.Val[i] = float32(i) - 7.5
	}
	f.Add(AppendDense(nil, dense, 16, 64))
	empty := &sparse.Chunk{}
	f.Add(AppendDelta(nil, empty, 0, 0))
	f.Add([]byte{byte(FormatDelta), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{byte(FormatDense), 0x08, 0x00, 0x08, 1, 2, 3, 4})
	f.Add(bytes.Repeat([]byte{0x80}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeArena(nil, data)
		if err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("DecodeArena accepted an invalid chunk: %v", verr)
		}
		lo, hi := Range(got)
		re, _ := Encode(got, lo, hi)
		back, err := DecodeArena(nil, re)
		if err != nil {
			t.Fatalf("re-encode of accepted chunk failed to decode: %v", err)
		}
		if back.Len() != got.Len() {
			t.Fatalf("re-encode changed length: %d != %d", back.Len(), got.Len())
		}
		for i := 0; i < back.Len(); i++ {
			if back.IdxAt(i) != got.IdxAt(i) {
				t.Fatalf("re-encode changed index %d", i)
			}
		}
	})
}

// FuzzDense round-trips arbitrary value blocks through FormatDense: the
// encoding must preserve every position bit-for-bit (NaN payloads and
// signed zeros included), decode into the dense representation, and agree
// byte-for-byte whether the source chunk was a real dense block or its
// full-cover COO twin.
func FuzzDense(f *testing.F) {
	f.Add(int64(1), uint16(1), uint32(0))
	f.Add(int64(2), uint16(64), uint32(100))
	f.Add(int64(3), uint16(1000), uint32(1<<20))
	f.Fuzz(func(t *testing.T, seed int64, span16 uint16, lo32 uint32) {
		span := int(span16)%2048 + 1
		lo := int32(lo32 % (math.MaxInt32 - 4096))
		hi := lo + int32(span)
		rng := rand.New(rand.NewSource(seed))
		block := (*sparse.Arena)(nil).GetDense(lo, span)
		twin := &sparse.Chunk{}
		for i := range block.Val {
			v := math.Float32frombits(rng.Uint32()) // all bit patterns, NaN included
			block.Val[i] = v
			twin.Idx = append(twin.Idx, lo+int32(i))
			twin.Val = append(twin.Val, v)
		}
		encBlock := AppendDense(nil, block, lo, hi)
		encTwin := AppendDense(nil, twin, lo, hi)
		if !bytes.Equal(encBlock, encTwin) {
			t.Fatal("dense encoding differs between representations")
		}
		if want := DenseBytes(lo, hi); len(encBlock) != want {
			t.Fatalf("DenseBytes %d != materialized %d", want, len(encBlock))
		}
		got, err := DecodeArena(nil, encBlock)
		if err != nil {
			t.Fatal(err)
		}
		if !got.IsDense() {
			t.Fatal("dense buffer decoded into COO representation")
		}
		if gotLo, gotHi := got.DenseRange(); gotLo != lo || gotHi != hi {
			t.Fatalf("decoded range [%d,%d), want [%d,%d)", gotLo, gotHi, lo, hi)
		}
		for i := range got.Val {
			if math.Float32bits(got.Val[i]) != math.Float32bits(block.Val[i]) {
				t.Fatalf("position %d: %x != %x", i, math.Float32bits(got.Val[i]), math.Float32bits(block.Val[i]))
			}
		}
	})
}
