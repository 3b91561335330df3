// Package sparse provides the sparse-gradient representation used by every
// communication algorithm in this repository: COO chunks sorted by index,
// merge-add of chunks, block partitioning of a dense gradient vector, and
// deterministic top-k selection.
//
// All algorithms in the paper exchange sparse gradients in coordinate (COO)
// format: one index and one value per entry, so the wire size of a chunk
// with c entries is 2c elements (the paper's "2k/P" style accounting).
package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// Chunk is a slice of a gradient vector in one of two representations:
//
//   - sparse (COO, the default): Idx is strictly increasing,
//     len(Idx) == len(Val), entry i is (Idx[i], Val[i]);
//   - dense block: dense is set, Idx is empty, and Val holds every value of
//     the contiguous index range [lo, lo+len(Val)) — entry i is
//     (lo+i, Val[i]), zeros included.
//
// Both representations describe a set of (index, value) entries; Len,
// IdxAt, Val[i] and the entry-walking methods below are the
// representation-transparent view collectives should use. A dense chunk's
// zero values are real entries (they carry residual shares exactly like an
// explicit zero-sum COO entry), which is what keeps a merge result
// observationally identical whether or not it switched representation.
// The zero value is an empty, valid (sparse) chunk.
type Chunk struct {
	Idx []int32
	Val []float32

	// Dense-block representation: when dense is set, Val covers the index
	// range [lo, lo+len(Val)) and Idx is unused.
	dense bool
	lo    int32

	// Arena bookkeeping (zero for heap chunks): the owning arena, the
	// epoch the chunk was handed out in, its storage size class (-1 for
	// Wrap headers whose storage the arena does not own), and whether it
	// has been recycled. See Arena.
	owner    *Arena
	birth    uint32
	class    int8
	recycled bool
}

// Len returns the number of entries in the chunk (for a dense block, the
// span width — zeros are entries).
func (c *Chunk) Len() int { return len(c.Val) }

// IsDense reports whether the chunk uses the dense-block representation.
func (c *Chunk) IsDense() bool { return c.dense }

// DenseRange returns the [lo, hi) index range of a dense block. It panics
// on a sparse chunk; callers branch on IsDense first.
func (c *Chunk) DenseRange() (lo, hi int32) {
	if !c.dense {
		panic("sparse: DenseRange on a sparse chunk")
	}
	return c.lo, c.lo + int32(len(c.Val))
}

// IdxAt returns the index of entry i in either representation. Entry
// values are Val[i] in both.
//
//spardl:hotpath
func (c *Chunk) IdxAt(i int) int32 {
	if c.dense {
		return c.lo + int32(i)
	}
	return c.Idx[i]
}

// ContainsIdx reports whether idx is one of the chunk's entries (a range
// check for dense blocks, binary search over the sorted indices otherwise).
//
//spardl:hotpath
func (c *Chunk) ContainsIdx(idx int32) bool {
	if c.dense {
		return idx >= c.lo && idx < c.lo+int32(len(c.Val))
	}
	lo, hi := 0, len(c.Idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.Idx[mid] < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(c.Idx) && c.Idx[lo] == idx
}

// WireElems returns the number of scalar elements transmitted on the wire
// for this chunk in COO format (index + value per entry).
func (c *Chunk) WireElems() int { return 2 * c.Len() }

// WireBytes returns the wire size in bytes, assuming 4-byte indices and
// 4-byte float values (int32 + float32), the format used throughout. The
// accounting is per entry, so a dense block charges its full span.
func (c *Chunk) WireBytes() int { return 8 * c.Len() }

// Clone returns a deep copy of the chunk, preserving its representation.
func (c *Chunk) Clone() *Chunk {
	out := &Chunk{
		Val:   make([]float32, len(c.Val)),
		dense: c.dense,
		lo:    c.lo,
	}
	copy(out.Val, c.Val)
	if !c.dense {
		out.Idx = make([]int32, len(c.Idx))
		copy(out.Idx, c.Idx)
	}
	return out
}

// Validate checks the chunk invariants. It is used by tests and by debug
// assertions; algorithms assume valid chunks.
func (c *Chunk) Validate() error {
	if c.dense {
		if len(c.Idx) != 0 {
			return fmt.Errorf("sparse: dense block carries %d explicit indices", len(c.Idx))
		}
		if c.lo < 0 {
			return fmt.Errorf("sparse: dense block starts at negative index %d", c.lo)
		}
		return nil
	}
	if len(c.Idx) != len(c.Val) {
		return fmt.Errorf("sparse: index/value length mismatch: %d != %d", len(c.Idx), len(c.Val))
	}
	for i := 1; i < len(c.Idx); i++ {
		if c.Idx[i] <= c.Idx[i-1] {
			return fmt.Errorf("sparse: indices not strictly increasing at %d: %d <= %d", i, c.Idx[i], c.Idx[i-1])
		}
	}
	return nil
}

// FromDense extracts the non-zero entries of dense[lo:hi) into a chunk with
// absolute indices. Entries exactly equal to zero are skipped.
func FromDense(dense []float32, lo, hi int) *Chunk {
	return (*Arena)(nil).FromDense(dense, lo, hi)
}

// FromMap builds a chunk from an index->value map, sorting indices.
// Zero values are kept (callers that want them dropped should filter first).
func FromMap(m map[int32]float32) *Chunk {
	c := &Chunk{
		Idx: make([]int32, 0, len(m)),
		Val: make([]float32, 0, len(m)),
	}
	//spardl:nondeterministic-ok keys are sorted below before any order-sensitive use
	for i := range m {
		c.Idx = append(c.Idx, i)
	}
	// slices.Sort (pdqsort over the concrete element type) instead of the
	// closure-based sort.Slice: no per-call closure/interface allocation
	// and no reflect-driven swaps on this hot construction path.
	slices.Sort(c.Idx)
	for _, i := range c.Idx {
		c.Val = append(c.Val, m[i])
	}
	return c
}

// AddToDense scatters the chunk into the dense vector, adding values. A
// dense block adds through AddInto.
//
//spardl:hotpath
func (c *Chunk) AddToDense(dense []float32) {
	if c.dense {
		AddInto(dense[c.lo:], c.Val)
		return
	}
	for i, idx := range c.Idx {
		dense[idx] += c.Val[i]
	}
}

// SetInDense scatters the chunk into the dense vector, overwriting values.
//
//spardl:hotpath
func (c *Chunk) SetInDense(dense []float32) {
	if c.dense {
		copy(dense[c.lo:int(c.lo)+len(c.Val)], c.Val)
		return
	}
	for i, idx := range c.Idx {
		dense[idx] = c.Val[i]
	}
}

// ClearInDense zeroes the dense vector at every entry of the chunk.
//
//spardl:hotpath
func (c *Chunk) ClearInDense(dense []float32) {
	if c.dense {
		clear(dense[c.lo : int(c.lo)+len(c.Val)])
		return
	}
	for _, idx := range c.Idx {
		dense[idx] = 0
	}
}

// MergeAdd returns a new chunk containing the union of a's and b's indices;
// values at indices present in both are summed. Both inputs are left
// unmodified. Entries that sum to exactly zero are kept: dropping them would
// silently lose residual mass and break conservation accounting.
func MergeAdd(a, b *Chunk) *Chunk { return (*Arena)(nil).MergeAdd(a, b) }

// MergeAddAll merge-adds all chunks with a single k-way merge pass (or a
// dense scatter-add — see Arena.MergeAddAll). Nil entries are skipped;
// inputs are never mutated or aliased by the result. One output
// allocation and one sweep over the union replace the repeated pairwise
// merges a naive fold would do (O(total·m) copying).
func MergeAddAll(chunks []*Chunk) *Chunk { return (*Arena)(nil).MergeAddAll(chunks) }

// Slice returns the sub-chunk with indices in [lo, hi). The returned chunk
// shares storage with c; callers must not mutate it. Slicing is defined on
// both representations: a dense block slices to the overlapping dense
// sub-block.
func (c *Chunk) Slice(lo, hi int32) *Chunk {
	if c.dense {
		a := clampRel(lo-c.lo, len(c.Val))
		b := clampRel(hi-c.lo, len(c.Val))
		if b < a {
			b = a
		}
		return &Chunk{Val: c.Val[a:b], dense: true, lo: c.lo + int32(a)}
	}
	a := sort.Search(len(c.Idx), func(i int) bool { return c.Idx[i] >= lo })
	b := sort.Search(len(c.Idx), func(i int) bool { return c.Idx[i] >= hi })
	return &Chunk{Idx: c.Idx[a:b], Val: c.Val[a:b]}
}

// clampRel clamps a dense-relative offset to [0, n].
func clampRel(rel int32, n int) int {
	if rel < 0 {
		return 0
	}
	if int(rel) > n {
		return n
	}
	return int(rel)
}

// Sum returns the sum of all values in the chunk (float64 accumulator).
func (c *Chunk) Sum() float64 {
	var s float64
	for _, v := range c.Val {
		s += float64(v)
	}
	return s
}
