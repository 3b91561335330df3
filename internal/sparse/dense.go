package sparse

// Dense-block representation switching. Reduce-scatter fan-in densifies
// sparse streams: as partial selections from P workers merge, a block's
// density can cross the point where index+value pairs are both larger on
// the wire and slower to merge than a plain dense block (SparCML's
// "switch to dense" observation, generalized here to every merge). The
// kernels in this file let a merge result switch into the dense-block
// Chunk representation mid-collective, by the one rule in shouldDensify.
//
// Determinism contract: whether a merge densifies is a pure function of
// the input *entry sets* (their total entry count and union index span),
// never of the inputs' current representation. Entry sets are preserved
// exactly by every wire codec, so the simulator (reference-passing),
// livenet and tcpnet (byte round-trips) make identical switching
// decisions and produce bit-identical results. Within one merge, the
// per-index summation order is input order in both representations: the
// dense path scatter-adds each input in turn into a zeroed block, which
// performs exactly the `sum := 0; sum += v_i` chain of the sparse k-way
// merge.

// denseMinSpan is the smallest union span shouldDensify will densify.
// Below it the representation switch cannot pay for itself (the dense
// header and block bookkeeping dominate), and keeping tiny merges sparse
// leaves small-scale schedules byte-identical to the pre-dense baseline.
const denseMinSpan = 64

// shouldDensify decides whether a merge whose inputs hold `entries` total
// entries over the union index span `span` switches to the dense block:
// once the entry count reaches half the span — the point where the dense
// block is no larger on the wire (4·span vs 8·entries COO bytes) and the
// merge kernel turns into contiguous adds — and the span is at least
// denseMinSpan. entries over-counts the union when inputs overlap; for the
// fan-in merges this targets (near-disjoint reduce-scatter pieces) the
// bound is tight, and over-estimating density only ever switches earlier,
// never non-deterministically — the estimate is the same on every backend.
//
//spardl:hotpath
func shouldDensify(entries int, span int64) bool {
	return span >= denseMinSpan && 2*int64(entries) >= span
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

// mergeAddIntoAny is the representation-transparent two-pointer merge for
// the rare sparse-output pairing with a dense input (a densified stream
// merging into a result that stays sparse). out must be empty with
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
// when a sparse-output fan-in holds a dense input. pos holds one zeroed
// cursor per input.
//
//spardl:hotpath
func kwayMergeAny(out *Chunk, act []*Chunk, pos []int32) {
	for {
		min := int64(1) << 62
		for i, c := range act {
			if int(pos[i]) < c.Len() && int64(c.IdxAt(int(pos[i]))) < min {
				min = int64(c.IdxAt(int(pos[i])))
			}
		}
		if min == int64(1)<<62 {
			return
		}
		var sum float32
		for i, c := range act {
			if int(pos[i]) < c.Len() && int64(c.IdxAt(int(pos[i]))) == min {
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
