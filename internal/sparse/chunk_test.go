package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func chunkOf(pairs ...float32) *Chunk {
	// pairs are (index, value) flattened; helper for terse test tables.
	if len(pairs)%2 != 0 {
		panic("chunkOf needs index/value pairs")
	}
	c := &Chunk{}
	for i := 0; i < len(pairs); i += 2 {
		c.Idx = append(c.Idx, int32(pairs[i]))
		c.Val = append(c.Val, pairs[i+1])
	}
	return c
}

func TestChunkValidate(t *testing.T) {
	if err := chunkOf(1, 0.5, 3, -2, 7, 1).Validate(); err != nil {
		t.Fatalf("valid chunk rejected: %v", err)
	}
	if err := chunkOf(3, 0.5, 1, -2).Validate(); err == nil {
		t.Fatal("unsorted chunk accepted")
	}
	bad := &Chunk{Idx: []int32{1, 2}, Val: []float32{0.5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if err := (&Chunk{}).Validate(); err != nil {
		t.Fatalf("empty chunk rejected: %v", err)
	}
}

func TestFromDenseSkipsZeros(t *testing.T) {
	dense := []float32{0, 1.5, 0, -2, 0, 0, 3}
	c := FromDense(dense, 0, len(dense))
	want := chunkOf(1, 1.5, 3, -2, 6, 3)
	assertChunkEqual(t, c, want)

	sub := FromDense(dense, 2, 5)
	assertChunkEqual(t, sub, chunkOf(3, -2))
}

func TestMergeAddDisjointAndOverlap(t *testing.T) {
	a := chunkOf(1, 1, 5, 2, 9, 3)
	b := chunkOf(2, 10, 5, -2, 11, 4)
	got := MergeAdd(a, b)
	// Index 5 sums to zero but must be retained for residual conservation.
	want := chunkOf(1, 1, 2, 10, 5, 0, 9, 3, 11, 4)
	assertChunkEqual(t, got, want)

	// Inputs untouched.
	assertChunkEqual(t, a, chunkOf(1, 1, 5, 2, 9, 3))
	assertChunkEqual(t, b, chunkOf(2, 10, 5, -2, 11, 4))
}

func TestMergeAddEmpty(t *testing.T) {
	a := chunkOf(1, 1)
	assertChunkEqual(t, MergeAdd(a, &Chunk{}), a)
	assertChunkEqual(t, MergeAdd(&Chunk{}, a), a)
	assertChunkEqual(t, MergeAdd(nil, a), a)
	assertChunkEqual(t, MergeAdd(a, nil), a)
	assertChunkEqual(t, MergeAdd(nil, nil), &Chunk{})
}

func TestMergeAddAll(t *testing.T) {
	got := MergeAddAll([]*Chunk{
		chunkOf(0, 1),
		nil,
		chunkOf(0, 2, 3, 1),
		chunkOf(3, -1, 4, 5),
	})
	assertChunkEqual(t, got, chunkOf(0, 3, 3, 0, 4, 5))
}

// The k-way merge's sentinel must not swallow the maximum representable
// index.
func TestMergeAddAllMaxInt32Index(t *testing.T) {
	got := MergeAddAll([]*Chunk{
		{Idx: []int32{5, math.MaxInt32}, Val: []float32{1, 2}},
		{Idx: []int32{math.MaxInt32}, Val: []float32{3}},
	})
	want := &Chunk{Idx: []int32{5, math.MaxInt32}, Val: []float32{1, 5}}
	assertChunkEqual(t, got, want)
}

// Property: the k-way MergeAddAll carries the same content as a pairwise
// MergeAdd fold and never aliases its inputs. The fold and the k-way pass
// may make different representation-switching decisions (each pairwise
// step sees a different density estimate), so the comparison is over the
// scattered dense content — the observable a reducer consumes — not the
// entry lists.
func TestMergeAddAllMatchesPairwiseFold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(9)
		chunks := make([]*Chunk, m)
		for i := range chunks {
			c := &Chunk{}
			idx := int32(0)
			for n := rng.Intn(40); n > 0; n-- {
				idx += 1 + int32(rng.Intn(20))
				c.Idx = append(c.Idx, idx)
				c.Val = append(c.Val, float32(rng.NormFloat64()))
			}
			chunks[i] = c
		}
		if rng.Intn(2) == 0 {
			chunks[rng.Intn(m)] = nil
		}
		want := &Chunk{}
		for _, c := range chunks {
			want = MergeAdd(want, c)
		}
		got := MergeAddAll(chunks)
		if err := got.Validate(); err != nil {
			t.Fatalf("invalid merge result: %v", err)
		}
		assertSameContent(t, got, want, 900)
		// Every input entry must appear in the union.
		for _, c := range chunks {
			if c == nil {
				continue
			}
			for i := 0; i < c.Len(); i++ {
				if !got.ContainsIdx(c.IdxAt(i)) {
					t.Fatalf("union lost input index %d", c.IdxAt(i))
				}
			}
		}
		// Mutating the result must not corrupt any input.
		if got.Len() > 0 {
			got.Val[0] += 1000
			for _, c := range chunks {
				if c != nil && c.Len() > 0 && c.IdxAt(0) == got.IdxAt(0) && c.Val[0] >= 500 {
					t.Fatal("MergeAddAll result aliases an input chunk")
				}
			}
		}
	}
}

// assertSameContent scatters both chunks into dense vectors of length n
// and requires bit-equality position by position — the representation-
// independent equality merges must preserve.
func assertSameContent(t *testing.T, got, want *Chunk, n int) {
	t.Helper()
	dg := make([]float32, n)
	dw := make([]float32, n)
	got.AddToDense(dg)
	want.AddToDense(dw)
	for i := range dg {
		if math.Float32bits(dg[i]) != math.Float32bits(dw[i]) {
			t.Fatalf("content mismatch at %d: got %g want %g", i, dg[i], dw[i])
		}
	}
}

func TestSlice(t *testing.T) {
	c := chunkOf(1, 1, 4, 2, 6, 3, 9, 4)
	assertChunkEqual(t, c.Slice(4, 9), chunkOf(4, 2, 6, 3))
	assertChunkEqual(t, c.Slice(0, 100), c)
	if c.Slice(7, 9).Len() != 0 {
		t.Fatal("expected empty slice")
	}
}

func TestScatterRoundTrip(t *testing.T) {
	dense := make([]float32, 10)
	c := chunkOf(2, 1.5, 7, -3)
	c.AddToDense(dense)
	c.AddToDense(dense)
	if dense[2] != 3 || dense[7] != -6 {
		t.Fatalf("AddToDense wrong: %v", dense)
	}
	c.SetInDense(dense)
	if dense[2] != 1.5 || dense[7] != -3 {
		t.Fatalf("SetInDense wrong: %v", dense)
	}
}

// Property: MergeAdd preserves total mass (sum of values) and the sorted
// invariant for arbitrary random chunks.
func TestMergeAddProperties(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomChunk(rand.New(rand.NewSource(seedA)), 200, 1000)
		b := randomChunk(rand.New(rand.NewSource(seedB)), 200, 1000)
		m := MergeAdd(a, b)
		if err := m.Validate(); err != nil {
			return false
		}
		diff := m.Sum() - a.Sum() - b.Sum()
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomChunk(rng *rand.Rand, maxLen, indexSpace int) *Chunk {
	n := rng.Intn(maxLen)
	seen := map[int32]float32{}
	for i := 0; i < n; i++ {
		seen[int32(rng.Intn(indexSpace))] = float32(rng.NormFloat64())
	}
	return FromMap(seen)
}

func assertChunkEqual(t *testing.T, got, want *Chunk) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("invalid chunk: %v", err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("length mismatch: got %d want %d\ngot:  %v %v\nwant: %v %v",
			got.Len(), want.Len(), got.Idx, got.Val, want.Idx, want.Val)
	}
	for i := range got.Idx {
		if got.Idx[i] != want.Idx[i] || got.Val[i] != want.Val[i] {
			t.Fatalf("entry %d mismatch: got (%d,%g) want (%d,%g)",
				i, got.Idx[i], got.Val[i], want.Idx[i], want.Val[i])
		}
	}
}
