package sparse

// Dense-block representation switching. Reduce-scatter fan-in densifies
// sparse streams: as partial selections from P workers merge, a block's
// density can cross the point where index+value pairs are both larger on
// the wire and slower to merge than a plain dense block (SparCML's
// "switch to dense" observation, generalized here to every merge). The
// kernels in this file let a merge result switch into the dense-block
// Chunk representation mid-collective, under a per-arena policy.
//
// Determinism contract: whether a merge densifies is a pure function of
// the input *entry sets* (their total entry count and union index span)
// and the arena policy — never of the inputs' current representation.
// Entry sets are preserved exactly by every wire codec, so the simulator
// (reference-passing), livenet and tcpnet (byte round-trips) make
// identical switching decisions and produce bit-identical results.
// Within one merge, the per-index summation order is input order in both
// representations: the dense path scatter-adds each input in turn into a
// zeroed block, which performs exactly the `sum := 0; sum += v_i` chain
// of the sparse k-way merge.

import "sync"

// DensePolicy selects when merge results switch into the dense-block
// representation.
type DensePolicy int

const (
	// DenseAdaptive (the default) densifies a merge result once the total
	// input entry count reaches half the union index span — the point
	// where the dense block is no larger on the wire (4·span vs 8·entries
	// COO bytes) and the merge kernel turns into contiguous adds. Spans
	// below denseMinSpan stay sparse: tiny blocks gain nothing.
	DenseAdaptive DensePolicy = iota
	// DenseNever disables switching: every merge result stays in COO
	// form, reproducing the pre-dense behaviour exactly.
	DenseNever
	// DenseAlways densifies every non-empty merge result regardless of
	// density — the ablation bound for the density sweep.
	DenseAlways
)

// String implements fmt.Stringer.
func (p DensePolicy) String() string {
	switch p {
	case DenseAdaptive:
		return "adaptive"
	case DenseNever:
		return "never"
	case DenseAlways:
		return "always"
	}
	return "DensePolicy(?)"
}

// denseMinSpan is the smallest union span DenseAdaptive will densify.
// Below it the representation switch cannot pay for itself (the dense
// header and block bookkeeping dominate), and keeping tiny merges sparse
// leaves small-scale schedules byte-identical to the pre-dense baseline.
const denseMinSpan = 64

// SetDensePolicy selects the representation-switching policy for merge
// results allocated from this arena. The zero value is DenseAdaptive.
func (a *Arena) SetDensePolicy(p DensePolicy) {
	if a != nil {
		a.dense = p
	}
}

// DensePolicyOf returns the arena's switching policy (DenseAdaptive for a
// nil arena, matching heap allocation).
func (a *Arena) DensePolicyOf() DensePolicy {
	if a == nil {
		return DenseAdaptive
	}
	return a.dense
}

// shouldDensify decides whether a merge whose inputs hold `entries` total
// entries over the union index span `span` switches to the dense block.
// entries over-counts the union when inputs overlap; for the fan-in
// merges this targets (near-disjoint reduce-scatter pieces) the bound is
// tight, and over-estimating density only ever switches earlier, never
// non-deterministically — the estimate is the same on every backend.
//
//spardl:hotpath
func (a *Arena) shouldDensify(entries int, span int64) bool {
	switch a.DensePolicyOf() {
	case DenseNever:
		return false
	case DenseAlways:
		return span > 0
	default:
		return span >= denseMinSpan && 2*int64(entries) >= span
	}
}

// GetDense returns a zeroed dense-block chunk over [lo, lo+span), owned
// by the current epoch (heap-allocated on a nil arena). Every position of
// the block is an entry.
//
//spardl:hotpath
func (a *Arena) GetDense(lo int32, span int) *Chunk {
	c := a.getDense(lo, span)
	clear(c.Val)
	return c
}

// getDense returns a dense-block chunk whose Val may hold stale data —
// the internal variant for callers that overwrite every position.
//
//spardl:hotpath
func (a *Arena) getDense(lo int32, span int) *Chunk {
	if span < 0 {
		span = 0
	}
	if a == nil {
		return &Chunk{Val: make([]float32, span), dense: true, lo: lo}
	}
	class := ceilLog2(span)
	if l := a.freeDense[class]; len(l) > 0 {
		c := l[len(l)-1]
		a.freeDense[class] = l[:len(l)-1]
		c.Val = c.Val[:cap(c.Val)][:span]
		c.lo = lo
		c.recycled = false
		return c
	}
	rounded := 1 << class
	c := a.hdr()
	c.Val = a.val.alloc(rounded)[:span]
	c.dense, c.lo = true, lo
	c.owner, c.birth, c.class = a, a.epoch, int8(class)
	return c
}

// unionBounds returns the tight [lo, hi) index interval covering both
// non-empty chunks' entries.
//
//spardl:hotpath
func unionBounds(x, y *Chunk) (lo, hi int32) {
	lo, hi = x.IdxAt(0), x.IdxAt(x.Len()-1)+1
	if f := y.IdxAt(0); f < lo {
		lo = f
	}
	if l := y.IdxAt(y.Len()-1) + 1; l > hi {
		hi = l
	}
	return lo, hi
}

// addIntoBlock scatter-adds c's entries into the block dst covering
// indices [base, base+len(dst)); every entry of c must fall inside it.
// Dense inputs add through AddInto (gc does not vectorize a plain slice
// loop; the kernel's eight-wide unrolling is what makes the dense+dense
// pairing cheap); sparse inputs scatter.
//
//spardl:hotpath
func addIntoBlock(dst []float32, base int32, c *Chunk) {
	if c.dense {
		AddInto(dst[c.lo-base:], c.Val)
		return
	}
	for i, idx := range c.Idx {
		dst[idx-base] += c.Val[i]
	}
}

// addRangeIntoBlock adds the entries of c with indices in [bLo, bHi) into
// the block dst covering exactly that range — the per-shard kernel of the
// parallel dense merge.
//
//spardl:hotpath
func addRangeIntoBlock(dst []float32, bLo, bHi int32, c *Chunk) {
	if c.dense {
		cLo, cHi := c.lo, c.lo+int32(len(c.Val))
		oLo, oHi := cLo, cHi
		if bLo > oLo {
			oLo = bLo
		}
		if bHi < oHi {
			oHi = bHi
		}
		if oLo < oHi {
			AddInto(dst[oLo-bLo:], c.Val[oLo-cLo:oHi-cLo])
		}
		return
	}
	for i := searchIdx(c.Idx, int64(bLo)); i < len(c.Idx) && c.Idx[i] < bHi; i++ {
		dst[c.Idx[i]-bLo] += c.Val[i]
	}
}

// mergeAddIntoAny is the representation-transparent two-pointer merge for
// the rare sparse-output pairing with a dense input (a densified stream
// merging into a result the policy keeps sparse). out must be empty with
// capacity for the union.
//
//spardl:hotpath
func mergeAddIntoAny(out, x, y *Chunk) {
	i, j, nx, ny := 0, 0, x.Len(), y.Len()
	for i < nx && j < ny {
		xi, yj := x.IdxAt(i), y.IdxAt(j)
		switch {
		case xi < yj:
			out.Idx = append(out.Idx, xi)
			out.Val = append(out.Val, x.Val[i])
			i++
		case xi > yj:
			out.Idx = append(out.Idx, yj)
			out.Val = append(out.Val, y.Val[j])
			j++
		default:
			out.Idx = append(out.Idx, xi)
			out.Val = append(out.Val, x.Val[i]+y.Val[j])
			i++
			j++
		}
	}
	for ; i < nx; i++ {
		out.Idx = append(out.Idx, x.IdxAt(i))
		out.Val = append(out.Val, x.Val[i])
	}
	for ; j < ny; j++ {
		out.Idx = append(out.Idx, y.IdxAt(j))
		out.Val = append(out.Val, y.Val[j])
	}
}

// kwayMergeAny is kwayMerge generalized over both representations, used
// when a sparse-output fan-in holds a dense input. pos provides cursor
// scratch of len(act).
//
//spardl:hotpath
func kwayMergeAny(out *Chunk, act []*Chunk, pos []int) {
	for i := range pos {
		pos[i] = 0
	}
	for {
		min := int64(1) << 62
		for i, c := range act {
			if pos[i] < c.Len() && int64(c.IdxAt(pos[i])) < min {
				min = int64(c.IdxAt(pos[i]))
			}
		}
		if min == int64(1)<<62 {
			return
		}
		var sum float32
		for i, c := range act {
			if pos[i] < c.Len() && int64(c.IdxAt(pos[i])) == min {
				sum += c.Val[pos[i]]
				pos[i]++
			}
		}
		out.Idx = append(out.Idx, int32(min))
		out.Val = append(out.Val, sum)
	}
}

// anyDense reports whether any active input uses the dense representation.
//
//spardl:hotpath
func anyDense(act []*Chunk) bool {
	for _, c := range act {
		if c.dense {
			return true
		}
	}
	return false
}

// mergeAddDenseShards is the parallel dense fan-in: the output block is
// cut into contiguous ranges, each filled by its own goroutine that walks
// every input in order. Each index is written by exactly one shard and
// inputs are consumed in input order within it, so the result is
// bit-identical to the serial scatter-add (and to the sparse k-way merge
// at the shared entries). Like mergeAddShards, the spawn-and-wait path is
// not a steady-state allocation concern: it only runs for fan-ins big
// enough that the merge work dwarfs the setup.
func mergeAddDenseShards(out *Chunk, act []*Chunk, shards int) {
	lo := out.lo
	span := int64(len(out.Val))
	if int64(shards) > span {
		shards = int(span)
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		bLo := lo + int32(span*int64(s)/int64(shards))
		bHi := lo + int32(span*int64(s+1)/int64(shards))
		wg.Add(1)
		go func(bLo, bHi int32) {
			defer wg.Done()
			dst := out.Val[bLo-lo : bHi-lo]
			for _, c := range act {
				addRangeIntoBlock(dst, bLo, bHi, c)
			}
		}(bLo, bHi)
	}
	wg.Wait()
}
