package comm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spardl/internal/sparse"
	"spardl/internal/wire"
)

// TestBuiltinPayloadRoundtrip pins the built-in encodings: every supported
// shape survives marshal → unmarshal exactly, including nesting.
func TestBuiltinPayloadRoundtrip(t *testing.T) {
	cases := []any{
		3.14159,
		-7,
		0,
		[]float32{},
		[]float32{1.5, -2.25, 3e-38},
		[]any{1, 2.5, []float32{9}},
	}
	for _, v := range cases {
		buf := MarshalPayload(v)
		got, err := UnmarshalPayloadArena(nil, buf)
		if err != nil {
			t.Fatalf("%#v: unmarshal failed: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("roundtrip changed payload: sent %#v, got %#v", v, got)
		}
	}
}

// pinChunks returns one chunk per wire format — delta, COO, bitmap, a dense
// block — and an empty one. Explicit values keep the pinned bytes
// independent of any random source.
func pinChunks() (deltaC, cooC, bitmapC, denseC, emptyC *sparse.Chunk) {
	deltaC = &sparse.Chunk{Idx: []int32{3, 4, 5, 9, 20, 21, 100}, Val: []float32{1.5, -2.25, 3, 0.125, -7, 1e-3, 42}}
	cooC = &sparse.Chunk{}
	for i := int32(0); i < 8; i++ {
		cooC.Idx = append(cooC.Idx, i<<28)
		cooC.Val = append(cooC.Val, float32(i)-3.5)
	}
	bitmapC = &sparse.Chunk{}
	for i := int32(0); i < 64; i += 2 {
		bitmapC.Idx = append(bitmapC.Idx, 1000+i)
		bitmapC.Val = append(bitmapC.Val, 1/float32(i+1))
	}
	denseC = (*sparse.Arena)(nil).GetDense(10, 6)
	for i := range denseC.Val {
		denseC.Val[i] = float32(i*i) - 2.75
	}
	return deltaC, cooC, bitmapC, denseC, &sparse.Chunk{}
}

// sameChunk compares entry sets, value bits included.
func sameChunk(got, want *sparse.Chunk) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("got %d entries, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.IdxAt(i) != want.IdxAt(i) || math.Float32bits(got.Val[i]) != math.Float32bits(want.Val[i]) {
			return fmt.Errorf("entry %d: (%d,%g), want (%d,%g)", i, got.IdxAt(i), got.Val[i], want.IdxAt(i), want.Val[i])
		}
	}
	return nil
}

// TestChunkPayloadRoundtrip: a chunk is framed as its tag, a 4-byte body
// length and exactly wire's negotiated encoding, and a chunk or a chunk
// bag comes back entry for entry on the heap and into an arena — as a
// dense block exactly when the encoding is FormatDense.
func TestChunkPayloadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func(maxLen, space int) *sparse.Chunk {
		m := map[int32]float32{}
		for i := 0; i < rng.Intn(maxLen); i++ {
			m[int32(rng.Intn(space))] = float32(rng.NormFloat64())
		}
		return sparse.FromMap(m)
	}
	deltaC, cooC, bitmapC, denseC, emptyC := pinChunks()
	chunks := []*sparse.Chunk{deltaC, cooC, bitmapC, denseC, emptyC, random(300, 5000), random(50, 100)}
	dense := make([]bool, len(chunks))
	for i, c := range chunks {
		lo, hi := wire.Range(c)
		enc, format := wire.Encode(c, lo, hi)
		dense[i] = format == wire.FormatDense
		framed := MarshalPayload(c)
		if len(framed) != 5+len(enc) || framed[0] != tagChunk || string(framed[5:]) != string(enc) {
			t.Fatalf("chunk %d: framed %d bytes, want the tag, a length and the %d-byte encoding", i, len(framed), len(enc))
		}
	}
	for _, a := range []*sparse.Arena{nil, sparse.NewArena()} {
		for i, c := range chunks {
			v, err := UnmarshalPayloadArena(a, MarshalPayload(c))
			if err != nil {
				t.Fatalf("chunk %d (arena %v): %v", i, a != nil, err)
			}
			if err := sameChunk(v.(*sparse.Chunk), c); err != nil {
				t.Fatalf("chunk %d (arena %v): %v", i, a != nil, err)
			}
			if v.(*sparse.Chunk).IsDense() != dense[i] {
				t.Fatalf("chunk %d (arena %v): decoded dense %v, want %v", i, a != nil, !dense[i], dense[i])
			}
		}
		v, err := UnmarshalPayloadArena(a, MarshalPayload(chunks))
		if err != nil {
			t.Fatalf("chunk bag (arena %v): %v", a != nil, err)
		}
		back := v.([]*sparse.Chunk)
		if len(back) != len(chunks) {
			t.Fatalf("chunk bag (arena %v): got %d chunks back, want %d", a != nil, len(back), len(chunks))
		}
		for i := range chunks {
			if err := sameChunk(back[i], chunks[i]); err != nil {
				t.Fatalf("chunk bag (arena %v) item %d: %v", a != nil, i, err)
			}
		}
	}
}

// TestPayloadBytesPinned holds the bytes of the payloads every fabric
// puts on a byte link — an SRS bag, a Bruck batch of chunks, a dense
// vector, an evaluation message — to FNV-1a hashes recorded when chunk
// payloads were still encoded through a registry of codecs. A layout
// change moves a hash; re-pin only a change that means to move bytes.
func TestPayloadBytesPinned(t *testing.T) {
	deltaC, cooC, bitmapC, denseC, emptyC := pinChunks()
	for _, c := range []struct {
		name  string
		v     any
		bytes int
		hash  uint64
	}{
		{"srs bag", []*sparse.Chunk{deltaC, cooC, bitmapC, denseC, emptyC}, 315, 0xb03a3013b92a11b3},
		{"bruck items", []any{deltaC, denseC, emptyC}, 88, 0xacf67947da71a9a5},
		{"vec", Vec{F: []float32{1, -2.5, 3.25, 0, 1e-20, 65504}}, 26, 0x9d325d4171487541},
		{"eval", []any{17, 12.375, 64}, 16, 0x2705cdd77538349e},
	} {
		b := MarshalPayload(c.v)
		h := fnv.New64a()
		h.Write(b)
		if len(b) != c.bytes || h.Sum64() != c.hash {
			t.Errorf("%s: %d bytes, hash 0x%016x; want %d bytes, hash 0x%016x", c.name, len(b), h.Sum64(), c.bytes, c.hash)
		}
	}
}

// TestPayloadDecodedValuesDoNotAliasBuffer: byte-level backends recycle
// receive buffers after decoding, so decoded vectors must be copies.
func TestPayloadDecodedValuesDoNotAliasBuffer(t *testing.T) {
	buf := MarshalPayload([]float32{10, 20, 30})
	got, err := UnmarshalPayloadArena(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	if b := got.([]float32); b[0] != 10 || b[1] != 20 || b[2] != 30 {
		t.Fatalf("decoded values alias the receive buffer: %v", b)
	}
}

// TestPayloadRejectsCorruption: truncations, bad counts and bodies no
// encoder writes are errors — never a panic, never a value, on the heap
// and into an arena.
func TestPayloadRejectsCorruption(t *testing.T) {
	deltaC, _, _, denseC, emptyC := pinChunks()
	reject := func(what string, buf []byte) {
		t.Helper()
		for _, a := range []*sparse.Arena{nil, sparse.NewArena()} {
			if v, err := UnmarshalPayloadArena(a, buf); err == nil || v != nil {
				t.Errorf("%s (arena %v): got (%v, %v), want an error and no value", what, a != nil, v, err)
			}
		}
	}
	for _, good := range []any{
		[]any{[]float32{1, 2, 3}, 7},
		deltaC, denseC, emptyC,
		[]*sparse.Chunk{deltaC, denseC, emptyC},
	} {
		buf := MarshalPayload(good)
		for cut := 0; cut < len(buf); cut++ {
			reject(fmt.Sprintf("%T cut at %d of %d", good, cut, len(buf)), buf[:cut])
		}
		reject(fmt.Sprintf("%T with a trailing byte", good), append(buf, 0))
	}
	reject("unknown tag", []byte{0x7F})

	// chunkFrame frames body under tag with the length it claims.
	chunkFrame := func(tag byte, claim int, body []byte) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte{tag}, uint32(claim)), body...)
	}
	bagOf := func(items ...any) []byte {
		body := binary.AppendUvarint(nil, uint64(len(items)))
		for _, it := range items {
			body = AppendPayload(body, it)
		}
		return chunkFrame(tagChunks, len(body), body)
	}
	enc := MarshalPayload(deltaC)[5:]
	reject("bag holding a non-chunk", bagOf(deltaC, 5))
	reject("bag holding a bag", bagOf([]*sparse.Chunk{deltaC}))
	reject("chunk length past the buffer", chunkFrame(tagChunk, len(enc)+1, enc))
	reject("chunk length of 2^32-1", chunkFrame(tagChunk, math.MaxUint32, enc))
	reject("trailing bytes inside a chunk's length", chunkFrame(tagChunk, len(enc)+1, append(enc, 0)))
	bag := bagOf(deltaC)
	reject("trailing bytes inside a bag's length", chunkFrame(tagChunks, len(bag)-4, append(bag[5:], 0)))
	reject("bag count over its body", chunkFrame(tagChunks, 1, []byte{2}))
	// 0x12 and 0x13 once framed two all-gather item types; no encoder
	// writes them now.
	for _, tag := range []byte{0x12, 0x13} {
		reject(fmt.Sprintf("retired tag 0x%02x", tag), chunkFrame(tag, len(enc), enc))
	}
}
