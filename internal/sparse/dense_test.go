package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// denseBlockOf builds a heap dense-block chunk over [lo, lo+len(vals))
// holding vals.
func denseBlockOf(lo int32, vals ...float32) *Chunk {
	c := (*Arena)(nil).GetDense(lo, len(vals))
	copy(c.Val, vals)
	return c
}

func TestGetDenseBasics(t *testing.T) {
	c := (*Arena)(nil).GetDense(10, 5)
	if !c.IsDense() || c.Len() != 5 {
		t.Fatalf("GetDense: dense=%v len=%d", c.IsDense(), c.Len())
	}
	if lo, hi := c.DenseRange(); lo != 10 || hi != 15 {
		t.Fatalf("range [%d,%d), want [10,15)", lo, hi)
	}
	for i := 0; i < c.Len(); i++ {
		if c.IdxAt(i) != 10+int32(i) {
			t.Fatalf("IdxAt(%d) = %d", i, c.IdxAt(i))
		}
		if c.Val[i] != 0 {
			t.Fatal("GetDense returned non-zero storage")
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c.ContainsIdx(10) || !c.ContainsIdx(14) || c.ContainsIdx(9) || c.ContainsIdx(15) {
		t.Fatal("ContainsIdx wrong on dense block")
	}
}

func TestArenaGetDenseRecycleReuse(t *testing.T) {
	a := NewArena()
	c := a.GetDense(100, 300)
	c.Val[0] = 42
	a.Recycle(c)
	// Same size class comes back from the dense freelist, zeroed, with the
	// new placement.
	d := a.GetDense(7, 200)
	if !d.IsDense() {
		t.Fatal("reused chunk lost dense representation")
	}
	if lo, hi := d.DenseRange(); lo != 7 || hi != 207 {
		t.Fatalf("reused range [%d,%d)", lo, hi)
	}
	for _, v := range d.Val {
		if v != 0 {
			t.Fatal("recycled dense storage not cleared")
		}
	}
	// Dense and sparse freelists must not cross: a sparse Get after dense
	// recycling returns a COO chunk.
	a.Recycle(d)
	s := a.Get(10)
	if s.IsDense() {
		t.Fatal("sparse Get returned a dense block")
	}
}

func TestShouldDensify(t *testing.T) {
	cases := []struct {
		entries int
		span    int64
		want    bool
	}{
		{32, 64, true},    // exactly at crossover
		{31, 64, false},   // just below
		{63, 63, false},   // span under denseMinSpan
		{500, 1000, true}, // 50% density
		{499, 1000, false},
	}
	for _, tc := range cases {
		if got := shouldDensify(tc.entries, tc.span); got != tc.want {
			t.Errorf("entries=%d span=%d: got %v want %v", tc.entries, tc.span, got, tc.want)
		}
	}
}

// assertMatchesScatter checks got's content bit for bit against the
// summation chain the dense path is defined by: every input scatter-added,
// in input order, into a zeroed length-n vector.
func assertMatchesScatter(t *testing.T, got *Chunk, inputs []*Chunk, n int) {
	t.Helper()
	want := make([]float32, n)
	for _, c := range inputs {
		c.AddToDense(want)
	}
	dg := make([]float32, n)
	got.AddToDense(dg)
	for i := range dg {
		if math.Float32bits(dg[i]) != math.Float32bits(want[i]) {
			t.Fatalf("content mismatch at %d: got %g want %g", i, dg[i], want[i])
		}
	}
}

// Property: for every pairing of representations, MergeAdd and
// MergeAddAll carry content bit-identical to scatter-adding the inputs in
// input order, whichever representation each merge picks.
func TestMergeRepresentationTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const space = 600
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(6)
		// Random inputs: mix of sparse chunks and dense blocks.
		inputs := make([]*Chunk, m)
		for i := range inputs {
			if rng.Intn(3) == 0 {
				lo := int32(rng.Intn(space / 2))
				span := 1 + rng.Intn(space/2)
				b := (*Arena)(nil).GetDense(lo, span)
				for j := range b.Val {
					if rng.Intn(2) == 0 {
						b.Val[j] = float32(rng.NormFloat64())
					}
				}
				inputs[i] = b
			} else {
				inputs[i] = randomChunk(rng, 80, space)
			}
		}

		a := NewArena()
		// Pairwise MergeAdd fold.
		fold := inputs[0]
		for _, c := range inputs[1:] {
			fold = a.MergeAdd(fold, c)
		}
		if err := fold.Validate(); err != nil {
			t.Fatalf("fold: %v", err)
		}
		assertMatchesScatter(t, fold, inputs, space)

		// k-way MergeAddAll.
		got := a.MergeAddAll(inputs)
		if err := got.Validate(); err != nil {
			t.Fatalf("k-way: %v", err)
		}
		assertMatchesScatter(t, got, inputs, space)
	}
}

// The forced-flip equivalence workload (P=4, n=1024, k=512) really does
// cross the density threshold: merging the per-block fan-in yields a dense
// block — pinning that the cross-backend "-flip" suites exercise a genuine
// representation switch rather than vacuously passing on all-sparse
// traffic.
func TestFlipWorkloadDensifies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const p, n, k = 4, 1024, 512
	blockSpan := n / p // one reduce-scatter block per worker
	fanIn := make([]*Chunk, p)
	for w := range fanIn {
		// Each worker contributes its top-k/p entries landing in this block.
		fanIn[w] = randomChunk(rng, k/p, blockSpan)
	}
	got := NewArena().MergeAddAll(fanIn)
	if !got.IsDense() {
		t.Fatalf("merge of %d×%d entries over span %d stayed sparse", p, k/p, blockSpan)
	}
	assertMatchesScatter(t, got, fanIn, n)
}

func TestMergeAddIntoDenseInPlace(t *testing.T) {
	a := NewArena()
	dst := a.GetDense(0, 128)
	for i := range dst.Val {
		dst.Val[i] = 1
	}
	src := chunkOf(3, 2, 100, -1)
	got := a.MergeAddInto(dst, src)
	if got != dst {
		t.Fatal("in-range sparse merge into a dense dst must be in place")
	}
	if dst.Val[3] != 3 || dst.Val[100] != 0 || dst.Val[50] != 1 {
		t.Fatalf("in-place dense absorb wrong: %v %v %v", dst.Val[3], dst.Val[100], dst.Val[50])
	}
	// Out-of-range src forces a regular merge (and recycles dst).
	far := chunkOf(500, 7)
	out := a.MergeAddInto(dst, far)
	if out == dst {
		t.Fatal("out-of-range merge cannot stay in place")
	}
	if !out.ContainsIdx(500) || !out.ContainsIdx(3) {
		t.Fatal("merged result lost entries")
	}
}

// A densified merge result re-sparsifies transparently through top-k
// selection: zeros are real entries ranking lowest.
func TestTopKChunkOnDenseBlock(t *testing.T) {
	b := denseBlockOf(10, 0, 5, -7, 0, 2, 0, 0, 1)
	kept, dropped := TopKChunk(b, 3)
	assertChunkEqual(t, kept, chunkOf(11, 5, 12, -7, 14, 2))
	if dropped.Len() != 5 {
		t.Fatalf("dropped %d entries, want 5 (zeros included)", dropped.Len())
	}
	if dropped.Sum() != 1 {
		t.Fatalf("dropped sum %g, want 1", dropped.Sum())
	}
}

func TestCloneAndSlicePreserveDense(t *testing.T) {
	b := denseBlockOf(20, 1, 2, 3, 4, 5, 6)
	c := (*Arena)(nil).Clone(b)
	if !c.IsDense() {
		t.Fatal("Clone dropped the dense representation")
	}
	assertSameContent(t, c, b, 40)
	c.Val[0] = 99
	if b.Val[0] != 1 {
		t.Fatal("Clone aliases its input")
	}
	sub := b.Slice(22, 25)
	if !sub.IsDense() || sub.Len() != 3 {
		t.Fatalf("Slice: dense=%v len=%d", sub.IsDense(), sub.Len())
	}
	if lo, hi := sub.DenseRange(); lo != 22 || hi != 25 {
		t.Fatalf("Slice range [%d,%d)", lo, hi)
	}
	if sub.Val[0] != 3 {
		t.Fatalf("Slice content %g, want 3", sub.Val[0])
	}
}

func TestPartitionSplitDense(t *testing.T) {
	p := NewPartition(100, 4)
	b := (*Arena)(nil).GetDense(0, 100)
	for i := range b.Val {
		b.Val[i] = float32(i)
	}
	parts := p.Split(b)
	if len(parts) != 4 {
		t.Fatalf("got %d parts", len(parts))
	}
	for i, part := range parts {
		lo, hi := p.Bounds(i)
		if !part.IsDense() || part.Len() != hi-lo {
			t.Fatalf("part %d: dense=%v len=%d want %d", i, part.IsDense(), part.Len(), hi-lo)
		}
		if part.IdxAt(0) != int32(lo) {
			t.Fatalf("part %d starts at %d, want %d", i, part.IdxAt(0), lo)
		}
	}
}

func TestAddToDenseFromBlock(t *testing.T) {
	out := make([]float32, 20)
	b := denseBlockOf(5, 1, 0, 2)
	b.AddToDense(out)
	b.AddToDense(out)
	if out[5] != 2 || out[6] != 0 || out[7] != 4 {
		t.Fatalf("dense AddToDense wrong: %v", out[5:8])
	}
	b.SetInDense(out)
	if out[5] != 1 || out[7] != 2 {
		t.Fatalf("dense SetInDense wrong: %v", out[5:8])
	}
}
