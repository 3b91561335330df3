package wire

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"spardl/internal/sparse"
)

func randomChunk(rng *rand.Rand, maxLen, space int) *sparse.Chunk {
	m := map[int32]float32{}
	for i := 0; i < rng.Intn(maxLen); i++ {
		m[int32(rng.Intn(space))] = float32(rng.NormFloat64())
	}
	return sparse.FromMap(m)
}

// assertEqual compares entry sets via IdxAt, so it holds regardless of
// which in-memory representation the decoder picked.
func assertEqual(t *testing.T, got, want *sparse.Chunk) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("len %d != %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.IdxAt(i) != want.IdxAt(i) || got.Val[i] != want.Val[i] {
			t.Fatalf("entry %d: (%d,%g) != (%d,%g)", i, got.IdxAt(i), got.Val[i], want.IdxAt(i), want.Val[i])
		}
	}
}

func TestRoundTripAllFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := randomChunk(rng, 200, 1000)
	for name, enc := range map[string][]byte{
		"coo":    AppendCOO(nil, c, 0, 1000),
		"delta":  AppendDelta(nil, c, 0, 1000),
		"bitmap": AppendBitmap(nil, c, 0, 1000),
	} {
		got, err := DecodeArena(nil, enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertEqual(t, got, c)
	}
}

func TestRoundTripDense(t *testing.T) {
	// A full-cover sparse chunk and a real dense-block chunk must encode to
	// identical bytes and decode into the dense representation.
	idx := make([]int32, 100)
	val := make([]float32, 100)
	for i := range idx {
		idx[i] = int32(40 + i)
		val[i] = float32(i) - 50
	}
	cooRep := &sparse.Chunk{Idx: idx, Val: val}
	denseRep := (*sparse.Arena)(nil).GetDense(40, 100)
	copy(denseRep.Val, val)

	encA := AppendDense(nil, cooRep, 40, 140)
	encB := AppendDense(nil, denseRep, 40, 140)
	if string(encA) != string(encB) {
		t.Fatal("dense encoding depends on the input representation")
	}
	got, err := DecodeArena(nil, encA)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsDense() {
		t.Fatal("FormatDense decoded into the COO representation")
	}
	if lo, hi := got.DenseRange(); lo != 40 || hi != 140 {
		t.Fatalf("decoded range [%d,%d), want [40,140)", lo, hi)
	}
	assertEqual(t, got, cooRep)
}

func TestEncodePicksDenseAtFullCover(t *testing.T) {
	idx := make([]int32, 64)
	val := make([]float32, 64)
	for i := range idx {
		idx[i] = int32(i)
		val[i] = 1
	}
	c := &sparse.Chunk{Idx: idx, Val: val}
	buf, f := Encode(c, 0, 64)
	if f != FormatDense {
		t.Fatalf("full cover picked %v, want dense", f)
	}
	for _, other := range [][]byte{
		AppendCOO(nil, c, 0, 64), AppendDelta(nil, c, 0, 64), AppendBitmap(nil, c, 0, 64),
	} {
		if len(buf) >= len(other) {
			t.Fatalf("dense (%d bytes) not strictly smallest (other %d)", len(buf), len(other))
		}
	}
	// The same entries over a wider range are no longer full cover.
	if _, f := Encode(c, 0, 65); f == FormatDense {
		t.Fatal("dense chosen without full cover")
	}
}

func TestEncodePicksSmallest(t *testing.T) {
	// Very sparse over a huge range → delta or COO, never bitmap.
	sparse1 := &sparse.Chunk{Idx: []int32{5, 100000}, Val: []float32{1, 2}}
	buf, f := Encode(sparse1, 0, 1<<20)
	if f == FormatBitmap {
		t.Fatalf("bitmap chosen for density 2/1M (%d bytes)", len(buf))
	}
	// Dense range → bitmap wins over COO.
	denseIdx := make([]int32, 500)
	denseVal := make([]float32, 500)
	for i := range denseIdx {
		denseIdx[i] = int32(i * 2)
		denseVal[i] = float32(i)
	}
	c := &sparse.Chunk{Idx: denseIdx, Val: denseVal}
	buf2, f2 := Encode(c, 0, 1000)
	if f2 != FormatBitmap {
		t.Fatalf("expected bitmap for 50%% density, got %v (%d bytes)", f2, len(buf2))
	}
	if len(buf2) >= COOBytes(c.Len(), 0, 1000) {
		t.Fatalf("bitmap (%d) not smaller than COO (%d)", len(buf2), COOBytes(c.Len(), 0, 1000))
	}
}

func TestDeltaBeatsCOOOnClusteredIndices(t *testing.T) {
	idx := make([]int32, 300)
	val := make([]float32, 300)
	for i := range idx {
		idx[i] = int32(1000 + i) // consecutive → gaps of 1 → 1-byte varints
		val[i] = 1
	}
	c := &sparse.Chunk{Idx: idx, Val: val}
	if len(AppendDelta(nil, c, 0, 2000)) >= COOBytes(c.Len(), 0, 2000) {
		t.Fatalf("delta (%d) should beat COO (%d) on consecutive indices",
			len(AppendDelta(nil, c, 0, 2000)), COOBytes(c.Len(), 0, 2000))
	}
}

// All headers must carry the caller's [lo, hi), not the chunk's own tight
// range, so a decoded message can be attributed to its block.
func TestHeadersCarryCallerRange(t *testing.T) {
	c := &sparse.Chunk{Idx: []int32{120, 130, 199}, Val: []float32{1, 2, 3}}
	const lo, hi = 100, 300
	for name, enc := range map[string][]byte{
		"coo":    AppendCOO(nil, c, lo, hi),
		"delta":  AppendDelta(nil, c, lo, hi),
		"bitmap": AppendBitmap(nil, c, lo, hi),
	} {
		_, count, gotLo, gotHi, _, err := parseHeader(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if count != c.Len() || gotLo != lo || gotHi != hi {
			t.Fatalf("%s: header (%d, [%d,%d)), want (%d, [%d,%d))", name, count, gotLo, gotHi, c.Len(), lo, hi)
		}
		got, err := DecodeArena(nil, enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertEqual(t, got, c)
	}
}

// The varint header must charge small messages only a few bytes: a short
// message at low indices fits the whole header in 4 bytes instead of the
// 13 a fixed-width layout costs.
func TestHeaderIsCompact(t *testing.T) {
	c := &sparse.Chunk{Idx: []int32{3}, Val: []float32{1}}
	if h := HeaderLen(c.Len(), 0, 10); h != 4 {
		t.Fatalf("small header is %d bytes, want 4", h)
	}
	enc := AppendCOO(nil, c, 0, 10)
	if len(enc) != 4+8 {
		t.Fatalf("singleton COO message is %d bytes, want 12", len(enc))
	}
	// Large fields expand as needed.
	big := &sparse.Chunk{Idx: []int32{1 << 30}, Val: []float32{1}}
	enc = AppendCOO(nil, big, 0, 1<<30+1)
	if _, _, _, hi, _, err := parseHeader(enc); err != nil || hi != 1<<30+1 {
		t.Fatalf("wide header round-trip: hi=%d err=%v", hi, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeArena(nil, nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	if _, err := DecodeArena(nil, make([]byte, 3)); err == nil {
		t.Fatal("short buffer accepted")
	}
	bad := AppendCOO(nil, &sparse.Chunk{Idx: []int32{1}, Val: []float32{2}}, 0, 10)
	bad[0] = 99
	if _, err := DecodeArena(nil, bad); err == nil {
		t.Fatal("unknown format accepted")
	}
	trunc := AppendCOO(nil, &sparse.Chunk{Idx: []int32{1, 2}, Val: []float32{3, 4}}, 0, 10)
	if _, err := DecodeArena(nil, trunc[:len(trunc)-3]); err == nil {
		t.Fatal("truncated body accepted")
	}
	dense := (*sparse.Arena)(nil).GetDense(0, 16)
	dtrunc := AppendDense(nil, dense, 0, 16)
	if _, err := DecodeArena(nil, dtrunc[:len(dtrunc)-1]); err == nil {
		t.Fatal("truncated dense body accepted")
	}
	// Dense count must equal the header span.
	mismatch := appendHeader(nil, FormatDense, 8, 0, 16)
	mismatch = append(mismatch, make([]byte, 4*8)...)
	if _, err := DecodeArena(nil, mismatch); err == nil {
		t.Fatal("dense count != span accepted")
	}
}

// The delta decoder must stop parsing varints exactly at the boundary of
// the packed-values region: a corrupted (short) entry count must fail
// loudly instead of silently consuming value bytes as varints.
func TestDeltaIndexValueBoundary(t *testing.T) {
	c := &sparse.Chunk{Idx: []int32{3, 7, 20, 21}, Val: []float32{1, 2, 3, 4}}
	enc := AppendDelta(nil, c, 0, 64)
	// Count 4 encodes as the single byte enc[1]; shrink it to 3: the fourth
	// gap varint now sits in front of the (re-interpreted) value region.
	enc[1] = 3
	if _, err := DecodeArena(nil, enc); err == nil {
		t.Fatal("short entry count silently consumed value bytes")
	}
	// Grow the count to 5: the varint region runs out.
	enc[1] = 5
	if _, err := DecodeArena(nil, enc); err == nil {
		t.Fatal("long entry count accepted")
	}
	// Absurd count must be rejected before any allocation: rebuild the
	// message with a fabricated huge count over the original body.
	_, _, lo, hi, body, err := parseHeader(AppendDelta(nil, c, 0, 64))
	if err != nil {
		t.Fatal(err)
	}
	huge := append(appendHeader(nil, FormatDelta, 1<<28, lo, hi), body...)
	if _, err := DecodeArena(nil, huge); err == nil {
		t.Fatal("absurd entry count accepted")
	}
}

// A huge varint gap must be rejected before accumulation: int64 wrap-around
// followed by int32 truncation would otherwise fabricate in-range indices
// from bytes no encoder produces.
func TestDeltaRejectsWrappingGap(t *testing.T) {
	buf := appendHeader(nil, FormatDelta, 2, 0, 100)
	var tmp [10]byte
	n := binary.PutUvarint(tmp[:], 1<<63+7)
	buf = append(buf, tmp[:n]...)
	buf = append(buf, 1)                  // second gap
	buf = append(buf, make([]byte, 8)...) // two packed values
	if _, err := DecodeArena(nil, buf); err == nil {
		t.Fatal("wrapping delta gap accepted")
	}
}

func TestEncodeRangePanicsOutside(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range indices")
		}
	}()
	Encode(&sparse.Chunk{Idx: []int32{50}, Val: []float32{1}}, 0, 10)
}

// Property: Encode/DecodeArena round-trips arbitrary chunks and never exceeds
// the COO accounting baseline.
func TestEncodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		space := 100 + rng.Intn(5000)
		c := randomChunk(rng, 300, space)
		buf, _ := Encode(c, 0, int32(space))
		got, err := DecodeArena(nil, buf)
		if err != nil {
			return false
		}
		if got.Len() != c.Len() {
			return false
		}
		for i := 0; i < got.Len(); i++ {
			if got.IdxAt(i) != c.IdxAt(i) || got.Val[i] != c.Val[i] {
				return false
			}
		}
		// The selector must never do worse than plain COO.
		return len(buf) <= COOBytes(c.Len(), 0, int32(space))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: every format round-trips every chunk shape — empty, single
// entry, dense span, random — and Encode really picks the smallest of the
// materialized buffers (with EncodedBytes agreeing exactly).
func TestAllFormatsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []*sparse.Chunk{
		{},                                       // empty
		{Idx: []int32{17}, Val: []float32{-3.5}}, // single entry
		{Idx: []int32{0, 1, 2, 3, 4, 5, 6, 7}, Val: make([]float32, 8)},          // dense span at 0
		{Idx: []int32{90, 91, 92, 93, 94, 95}, Val: []float32{1, 2, 3, 4, 5, 6}}, // dense span offset
	}
	for trial := 0; trial < 60; trial++ {
		shapes = append(shapes, randomChunk(rng, 1+rng.Intn(200), 50+rng.Intn(4000)))
	}
	for i, c := range shapes {
		lo, hi := Range(c)
		// Also exercise a caller range wider than the tight one.
		if i%2 == 1 {
			lo, hi = 0, hi+int32(rng.Intn(100))
		}
		encs := map[Format][]byte{
			FormatCOO:    AppendCOO(nil, c, lo, hi),
			FormatDelta:  AppendDelta(nil, c, lo, hi),
			FormatBitmap: AppendBitmap(nil, c, lo, hi),
		}
		if c.Len() > 0 && c.Len() == int(hi-lo) {
			encs[FormatDense] = AppendDense(nil, c, lo, hi)
		}
		smallest := -1
		for f, enc := range encs {
			got, err := DecodeArena(nil, enc)
			if err != nil {
				t.Fatalf("shape %d %v: %v", i, f, err)
			}
			assertEqual(t, got, c)
			if smallest < 0 || len(enc) < smallest {
				smallest = len(enc)
			}
		}
		buf, f := Encode(c, lo, hi)
		if len(buf) != smallest {
			t.Fatalf("shape %d: Encode picked %v (%d bytes), smallest is %d", i, f, len(buf), smallest)
		}
		if sz, szf := EncodedBytes(c, lo, hi); sz != len(buf) || szf != f {
			t.Fatalf("shape %d: EncodedBytes (%d, %v) disagrees with Encode (%d, %v)", i, sz, szf, len(buf), f)
		}
		if len(encs[FormatDelta]) != DeltaBytes(c, lo, hi) {
			t.Fatalf("shape %d: DeltaBytes %d != materialized %d", i, DeltaBytes(c, lo, hi), len(encs[FormatDelta]))
		}
	}
}

func BenchmarkEncodeDecodeDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := randomChunk(rng, 10000, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := AppendDelta(nil, c, 0, 1<<20)
		if _, err := DecodeArena(nil, buf); err != nil {
			b.Fatal(err)
		}
	}
}
