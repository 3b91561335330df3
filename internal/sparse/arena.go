package sparse

// Arena is a slab-backed allocator for the sparse reduce hot path. Every
// communication algorithm in this repository builds and discards a bounded
// working set of chunks per synchronization step — selections, merge
// results, send bags, decoded messages — and allocating them fresh each
// iteration made the memory allocator, not the collective schedule, the
// dominant cost of a Reduce (see BENCH_reduce.json history). An Arena
// amortizes all of that: chunk headers, Idx/Val storage, chunk-pointer
// slices and encode byte buffers are carved from reusable slabs by a bump
// pointer, so a steady-state Reduce performs no heap allocation at all.
//
// # Ownership and epochs
//
// One Arena belongs to one reducer (and therefore to one worker goroutine
// at a time — the comm.Endpoint concurrency contract). The reducer calls
// Reset once per Reduce, which starts a new epoch: all chunks handed out
// in earlier epochs are no longer owned by the arena, and their storage
// becomes eligible for reuse.
//
// Reuse is deliberately delayed by one full epoch (double buffering):
// Reset recycles the slabs of the *previous* epoch, never the current one.
// This is what makes arenas safe on reference-passing transports (simnet):
// a chunk sent to a peer in iteration t is only read while the peer
// executes its own iteration t, and any peer still holds iteration-t
// references only until the cluster's next synchronization point — by the
// time the sender reaches iteration t+2's Reset, the matched collective
// schedule (plus the per-iteration SyncClock barrier every driver issues)
// guarantees all of them are gone. Byte-level transports (livenet) copy on
// send and are indifferent.
//
// # Recycle
//
// Recycle returns a chunk to the arena's per-size-class freelist for reuse
// within the same epoch, keeping the peak slab footprint low for merge-
// heavy schedules. It is an assertion by the caller that no reference to
// the chunk survives — never recycle a chunk that was sent, or one that
// aliases another chunk's storage. Recycling the same chunk twice panics;
// recycling a foreign, heap-allocated, or stale (pre-Reset) chunk is a
// no-op, so call sites can recycle unconditionally.
//
// # What outlives Reset
//
// Besides its slabs the arena keeps, per (lo, hi, k) it has been asked to
// TopKDense (whatever the block's length), the k-th key of the last such
// selection and how far that key has been moving, and counts of how its
// selections went (SelectStats). Reset clears neither: the remembered keys
// are what lets next synchronization's selection read each block once
// instead of three times (see topk_warm.go).
// They are hints about cost only — a selection returns the same chunk
// whatever the arena remembers, so a caller that rewinds the vector
// underneath (RestoreResidual) owes the arena nothing.
//
// A nil *Arena is valid everywhere and falls back to plain heap
// allocation, so arena-aware code needs no branching at call sites; it
// remembers nothing.

import "math/bits"

const (
	// slabElems is the bump-slab size for Idx/Val storage. Requests at or
	// above it get a dedicated slab of their own (see slabPool.alloc).
	slabElems = 1 << 15
	// slabHdrs / slabPtrs / slabBytes size the header, pointer-slice and
	// byte-buffer slabs.
	slabHdrs  = 1 << 8
	slabPtrs  = 1 << 10
	slabBytes = 1 << 17
	// numClasses bounds the power-of-two size classes (2^30 elements is
	// far above any gradient this repository synchronizes).
	numClasses = 31
)

// slabPool bump-allocates []T runs from fixed-size slabs and recycles the
// slabs themselves across epochs with one epoch of quarantine.
type slabPool[T any] struct {
	slabLen int

	cur, prev, free [][]T // fixed-size slabs: filling, quarantined, reusable
	active          []T   // == cur[len(cur)-1]
	off             int

	bigCur, bigPrev [][]T             // dedicated (oversize) slabs in use
	bigFree         [numClasses][][]T // spare dedicated slabs by pow2 class of their length
}

// alloc returns a zero-length slice with capacity exactly n, carved from
// the current slab (or a dedicated slab for oversize requests). The slab
// makes below run only when the recycled slabs run out — the reviewed
// amortized growth path.
//
// A dedicated slab is n rounded up to whole slab lengths (a 512 KiB + 5 B
// frame takes 640 KiB of 128 KiB byte slabs, not 1 MiB) and is reused only
// by a request of the same rounded size. Spares are filed by the
// power-of-two class of their length; a miss in a class that holds spares
// of other sizes drops one of them, so a class never holds more slabs than
// it has had in use at once.
//
//spardl:hotpath
func (p *slabPool[T]) alloc(n int) []T {
	if n <= 0 {
		return nil
	}
	if n >= p.slabLen {
		size := (n + p.slabLen - 1) / p.slabLen * p.slabLen
		class := ceilLog2(size)
		l := p.bigFree[class]
		var s []T
		for i := len(l) - 1; i >= 0; i-- {
			if len(l[i]) == size {
				s = l[i]
				l[i] = l[len(l)-1]
				break
			}
		}
		if len(l) > 0 {
			l[len(l)-1] = nil
			p.bigFree[class] = l[:len(l)-1]
		}
		if s == nil {
			s = make([]T, size)
		}
		p.bigCur = append(p.bigCur, s)
		return s[0:0:n]
	}
	if p.off+n > len(p.active) {
		var s []T
		if len(p.free) > 0 {
			s = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
		} else {
			s = make([]T, p.slabLen)
		}
		p.cur = append(p.cur, s)
		p.active = s
		p.off = 0
	}
	out := p.active[p.off : p.off : p.off+n]
	p.off += n
	return out
}

// rotate starts a new epoch: last epoch's slabs become reusable, this
// epoch's slabs enter quarantine.
func (p *slabPool[T]) rotate() {
	p.free = append(p.free, p.prev...)
	p.cur, p.prev = p.prev[:0], p.cur
	for _, s := range p.bigPrev {
		class := ceilLog2(len(s))
		p.bigFree[class] = append(p.bigFree[class], s)
	}
	p.bigCur, p.bigPrev = p.bigPrev[:0], p.bigCur
	p.active = nil
	p.off = 0
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Arena allocates chunk headers, Idx/Val storage, chunk-pointer slices and
// byte buffers from epoch-recycled slabs. The zero value is ready to use;
// a nil *Arena degrades to heap allocation.
type Arena struct {
	epoch uint32

	idx  slabPool[int32]
	val  slabPool[float32]
	hdrs slabPool[Chunk]
	ptrs slabPool[*Chunk]
	anys slabPool[any]
	buf  slabPool[byte]

	// freelists of recycled chunks by storage size class; cleared (but not
	// shrunk) every epoch. Sparse (Idx+Val) and dense-block (Val-only)
	// chunks recycle separately: their storage shapes differ.
	freeChunks [numClasses][]*Chunk
	freeDense  [numClasses][]*Chunk

	// hints remembers the k-th key of the last TopKDense per (lo, hi, k)
	// and its drift, hintNext where the next lookup starts, and sel how
	// each selection went; see topk_warm.go. All three outlive Reset.
	hints    []selHint
	hintNext int
	sel      SelectStats
}

// NewArena returns an empty arena. Slabs are allocated lazily on first
// use, so idle arenas cost nothing.
func NewArena() *Arena {
	a := &Arena{}
	a.idx.slabLen = slabElems
	a.val.slabLen = slabElems
	a.hdrs.slabLen = slabHdrs
	a.ptrs.slabLen = slabPtrs
	a.anys.slabLen = slabPtrs
	a.buf.slabLen = slabBytes
	return a
}

// Reset starts a new epoch: every chunk handed out before the call stops
// being arena-owned (Recycle on it becomes a no-op), the per-class
// freelists are cleared, and the slabs of the previous epoch return to the
// free pool for reuse. Reducers call it once at the top of each Reduce.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.epoch++
	a.idx.rotate()
	a.val.rotate()
	a.hdrs.rotate()
	a.ptrs.rotate()
	a.anys.rotate()
	a.buf.rotate()
	for i := range a.freeChunks {
		a.freeChunks[i] = a.freeChunks[i][:0]
		a.freeDense[i] = a.freeDense[i][:0]
	}
}

// hdr returns a zeroed chunk header from the header slabs.
func (a *Arena) hdr() *Chunk {
	h := a.hdrs.alloc(1)[:1]
	h[0] = Chunk{}
	return &h[0]
}

// Get returns an empty chunk whose Idx/Val have capacity at least
// `capacity` (rounded up to a power of two), owned by the current epoch.
// On a nil arena it heap-allocates.
//
//spardl:hotpath
func (a *Arena) Get(capacity int) *Chunk {
	if a == nil {
		return &Chunk{Idx: make([]int32, 0, capacity), Val: make([]float32, 0, capacity)}
	}
	if capacity < 0 {
		capacity = 0
	}
	class := ceilLog2(capacity)
	if l := a.freeChunks[class]; len(l) > 0 {
		c := l[len(l)-1]
		a.freeChunks[class] = l[:len(l)-1]
		c.Idx = c.Idx[:0]
		c.Val = c.Val[:0]
		c.recycled = false
		return c
	}
	rounded := 1 << class
	c := a.hdr()
	c.Idx = a.idx.alloc(rounded)
	c.Val = a.val.alloc(rounded)
	c.owner, c.birth, c.class = a, a.epoch, int8(class)
	return c
}

// Wrap returns a chunk header (arena-owned, storage not recyclable) over
// caller-provided Idx/Val storage — the header-only allocation Split and
// Slice need. On a nil arena the header is heap-allocated by design.
//
//spardl:hotpath
func (a *Arena) Wrap(idx []int32, val []float32) *Chunk {
	if a == nil {
		return &Chunk{Idx: idx, Val: val}
	}
	c := a.hdr()
	c.Idx, c.Val = idx, val
	c.owner, c.birth, c.class = a, a.epoch, -1
	return c
}

// Recycle returns a chunk to the arena for reuse within the current epoch.
// The caller asserts no reference to c survives. Double-recycling panics;
// chunks the arena does not currently own (heap chunks, foreign arenas,
// pre-Reset epochs, Wrap headers) are ignored.
func (a *Arena) Recycle(c *Chunk) {
	if a == nil || c == nil || c.owner != a || c.birth != a.epoch || c.class < 0 {
		return
	}
	if c.recycled {
		panic("sparse: chunk recycled twice")
	}
	c.recycled = true
	if c.dense {
		a.freeDense[c.class] = append(a.freeDense[c.class], c)
	} else {
		a.freeChunks[c.class] = append(a.freeChunks[c.class], c)
	}
}

// Owns reports whether c was allocated by a in the current epoch (and not
// recycled). Tests use it to pin the reset-clears-ownership contract.
func (a *Arena) Owns(c *Chunk) bool {
	return a != nil && c != nil && c.owner == a && c.birth == a.epoch && !c.recycled
}

// Chunks returns an empty chunk-pointer slice with the given capacity,
// carved from the pointer slabs (heap on a nil arena, by design).
//
//spardl:hotpath
func (a *Arena) Chunks(capacity int) []*Chunk {
	if a == nil {
		return make([]*Chunk, 0, capacity)
	}
	return a.ptrs.alloc(capacity)
}

// Anys returns an empty []any with the given capacity from the item slabs
// (heap on a nil arena). The all-gather schedules draw their item slices
// from it, which is what makes a collective round allocation-free: slices
// sent to peers stay readable through the epoch quarantine like any other
// arena storage. Heap on a nil arena, by design.
//
//spardl:hotpath
func (a *Arena) Anys(capacity int) []any {
	if a == nil {
		return make([]any, 0, capacity)
	}
	return a.anys.alloc(capacity)
}

// Bytes returns an empty byte slice with the given capacity from the byte
// slabs (heap on a nil arena, by design). The wire transport uses it for
// encode buffers so serialized messages reuse pooled storage end-to-end.
//
//spardl:hotpath
func (a *Arena) Bytes(capacity int) []byte {
	if a == nil {
		return make([]byte, 0, capacity)
	}
	return a.buf.alloc(capacity)
}

// Clone returns an arena-owned deep copy of c, preserving its
// representation.
//
//spardl:hotpath
func (a *Arena) Clone(c *Chunk) *Chunk {
	if c.dense {
		out := a.getDense(c.lo, len(c.Val))
		copy(out.Val, c.Val)
		return out
	}
	out := a.Get(c.Len())
	out.Idx = append(out.Idx, c.Idx...)
	out.Val = append(out.Val, c.Val...)
	return out
}

// MergeAdd returns a chunk containing the union of x's and y's indices;
// values at indices present in both are summed. Inputs are not modified.
// See the package-level MergeAdd for the semantics; this variant allocates
// the result from the arena. The result switches to the dense-block
// representation once the union crosses the sparse/dense break-even point
// (see shouldDensify).
//
//spardl:hotpath
func (a *Arena) MergeAdd(x, y *Chunk) *Chunk {
	if x == nil || x.Len() == 0 {
		if y == nil {
			return a.Get(0)
		}
		return a.Clone(y)
	}
	if y == nil || y.Len() == 0 {
		return a.Clone(x)
	}
	lo, hi := unionBounds(x, y)
	span := int64(hi) - int64(lo)
	if shouldDensify(x.Len()+y.Len(), span) {
		out := a.GetDense(lo, int(span))
		addIntoBlock(out.Val, lo, x)
		addIntoBlock(out.Val, lo, y)
		return out
	}
	out := a.Get(x.Len() + y.Len())
	if x.dense || y.dense {
		mergeAddIntoAny(out, x, y)
	} else {
		mergeAddInto(out, x, y)
	}
	return out
}

// mergeAddInto merges x and y into out (which must be empty with
// sufficient capacity).
//
//spardl:hotpath
func mergeAddInto(out, x, y *Chunk) {
	i, j := 0, 0
	for i < len(x.Idx) && j < len(y.Idx) {
		switch {
		case x.Idx[i] < y.Idx[j]:
			out.Idx = append(out.Idx, x.Idx[i])
			out.Val = append(out.Val, x.Val[i])
			i++
		case x.Idx[i] > y.Idx[j]:
			out.Idx = append(out.Idx, y.Idx[j])
			out.Val = append(out.Val, y.Val[j])
			j++
		default:
			out.Idx = append(out.Idx, x.Idx[i])
			out.Val = append(out.Val, x.Val[i]+y.Val[j])
			i++
			j++
		}
	}
	out.Idx = append(out.Idx, x.Idx[i:]...)
	out.Val = append(out.Val, x.Val[i:]...)
	out.Idx = append(out.Idx, y.Idx[j:]...)
	out.Val = append(out.Val, y.Val[j:]...)
}

// MergeAddInto merges src into dst *in place* and returns the merged
// chunk. When dst has enough spare capacity the union is built backwards
// inside dst's own storage (no allocation, no extra copy); otherwise a
// fresh arena chunk is returned and dst is recycled. dst must be local to
// the caller: never a chunk that was sent to a peer or that shares
// storage with one.
//
//spardl:hotpath
func (a *Arena) MergeAddInto(dst, src *Chunk) *Chunk {
	if src == nil || src.Len() == 0 {
		if dst == nil {
			return a.Get(0)
		}
		return dst
	}
	if dst == nil || dst.Len() == 0 {
		a.Recycle(dst)
		return a.Clone(src)
	}
	if dst.dense {
		// A dense destination absorbs any source inside its range in place
		// — the sparse+dense pairing the eager reduce-scatter hits once a
		// block has switched. Sources that extend past the block fall back
		// to a fresh merge.
		sLo, sHi := src.IdxAt(0), src.IdxAt(src.Len()-1)+1
		dLo, dHi := dst.DenseRange()
		if sLo >= dLo && sHi <= dHi {
			addIntoBlock(dst.Val, dLo, src)
			return dst
		}
		out := a.MergeAdd(dst, src)
		a.Recycle(dst)
		return out
	}
	uLo, uHi := unionBounds(dst, src)
	if shouldDensify(dst.Len()+src.Len(), int64(uHi)-int64(uLo)) || src.dense {
		out := a.MergeAdd(dst, src)
		a.Recycle(dst)
		return out
	}
	n, m := dst.Len(), src.Len()
	if cap(dst.Idx) < n+m || cap(dst.Val) < n+m {
		out := a.Get(n + m)
		mergeAddInto(out, dst, src)
		a.Recycle(dst)
		return out
	}
	// Backward merge: fill [0, n+m) from the top while consuming dst's
	// original entries from position n-1 down; a union entry is never
	// written past an unconsumed dst entry, so nothing is clobbered.
	idx, val := dst.Idx[:n+m], dst.Val[:n+m]
	i, j, w := n-1, m-1, n+m-1
	for i >= 0 && j >= 0 {
		switch {
		case idx[i] > src.Idx[j]:
			idx[w], val[w] = idx[i], val[i]
			i--
		case idx[i] < src.Idx[j]:
			idx[w], val[w] = src.Idx[j], src.Val[j]
			j--
		default:
			idx[w], val[w] = idx[i], val[i]+src.Val[j]
			i--
			j--
		}
		w--
	}
	for j >= 0 {
		idx[w], val[w] = src.Idx[j], src.Val[j]
		j--
		w--
	}
	// Remaining dst entries [0, i] are already in place; shift the merged
	// tail down over the gap duplicates left between prefix and tail.
	lo := i + 1
	merged := (n + m) - (w + 1) // entries written at the top
	copy(idx[lo:], idx[w+1:n+m])
	copy(val[lo:], val[w+1:n+m])
	dst.Idx = idx[:lo+merged]
	dst.Val = val[:lo+merged]
	return dst
}

// MergeAddAll merge-adds all chunks (nil entries skipped, inputs never
// mutated or aliased) into one arena-allocated chunk: a scatter-add into
// a dense block when the union crosses the break-even point (see
// shouldDensify), otherwise one k-way merge pass. For every index, values
// are summed in input order on every path.
//
//spardl:hotpath
func (a *Arena) MergeAddAll(chunks []*Chunk) *Chunk {
	act := a.Chunks(len(chunks))
	total := 0
	for _, c := range chunks {
		if c != nil && c.Len() > 0 {
			act = append(act, c)
			total += c.Len()
		}
	}
	switch len(act) {
	case 0:
		return a.Get(0)
	case 1:
		return a.Clone(act[0])
	}
	lo, hi := act[0].IdxAt(0), act[0].IdxAt(act[0].Len()-1)+1
	for _, c := range act[1:] {
		if f := c.IdxAt(0); f < lo {
			lo = f
		}
		if l := c.IdxAt(c.Len()-1) + 1; l > hi {
			hi = l
		}
	}
	span := int64(hi) - int64(lo)
	if shouldDensify(total, span) {
		out := a.GetDense(lo, int(span))
		for _, c := range act {
			addIntoBlock(out.Val, lo, c)
		}
		return out
	}
	out, pos := a.Get(total), a.cursors(len(act))
	if anyDense(act) {
		kwayMergeAny(out, act, pos)
	} else {
		kwayMerge(out, act, pos)
	}
	return out
}

// cursors returns n zeroed merge cursors carved from the index slabs
// (heap on a nil arena, by design).
//
//spardl:hotpath
func (a *Arena) cursors(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	pos := a.idx.alloc(n)[:n]
	clear(pos)
	return pos
}

// kwayMerge merges the sorted inputs into out (empty, sufficient
// capacity). pos holds one zeroed cursor per input.
//
//spardl:hotpath
func kwayMerge(out *Chunk, act []*Chunk, pos []int32) {
	for {
		// Find the smallest pending index across the cursors; with the
		// small fan-ins used here (≤P inputs) a linear scan beats a heap.
		// The int64 sentinel keeps index MaxInt32 itself mergeable.
		min := int64(1) << 62
		for i, c := range act {
			if int(pos[i]) < len(c.Idx) && int64(c.Idx[pos[i]]) < min {
				min = int64(c.Idx[pos[i]])
			}
		}
		if min == int64(1)<<62 {
			return
		}
		var sum float32
		for i, c := range act {
			if int(pos[i]) < len(c.Idx) && int64(c.Idx[pos[i]]) == min {
				sum += c.Val[pos[i]]
				pos[i]++
			}
		}
		out.Idx = append(out.Idx, int32(min))
		out.Val = append(out.Val, sum)
	}
}

// FromDense extracts the non-zero entries of dense[lo:hi) into an
// arena-allocated chunk with absolute indices.
//
//spardl:hotpath
func (a *Arena) FromDense(dense []float32, lo, hi int) *Chunk {
	nz := 0
	for i := lo; i < hi; i++ {
		if dense[i] != 0 {
			nz++
		}
	}
	c := a.Get(nz)
	for i := lo; i < hi; i++ {
		if dense[i] != 0 {
			c.Idx = append(c.Idx, int32(i))
			c.Val = append(c.Val, dense[i])
		}
	}
	return c
}

// Gather returns an arena-allocated chunk over c's entry set, in c's
// representation, holding the values dense has there: the inverse of
// SetInDense. Gathering before a scatter into dense and calling SetInDense
// on the result afterwards restores the overwritten values bit for bit.
//
//spardl:hotpath
func (a *Arena) Gather(c *Chunk, dense []float32) *Chunk {
	if c.dense {
		out := a.getDense(c.lo, len(c.Val))
		copy(out.Val, dense[c.lo:int(c.lo)+len(c.Val)])
		return out
	}
	out := a.Get(len(c.Idx))
	out.Idx = append(out.Idx, c.Idx...)
	for _, idx := range c.Idx {
		out.Val = append(out.Val, dense[idx])
	}
	return out
}

// Split cuts a chunk into per-block sub-chunks according to the partition,
// with headers (sharing c's storage) and the slice itself arena-allocated.
//
//spardl:hotpath
func (a *Arena) Split(p *Partition, c *Chunk) []*Chunk {
	if c.dense {
		// Split cuts a selection into per-block sends; selections are
		// always sparse, so a dense block here is an algorithm bug.
		panic("sparse: Split input is a dense block")
	}
	out := a.Chunks(p.Blocks)
	pos := 0
	for b := 0; b < p.Blocks; b++ {
		hi := p.Offsets[b+1]
		start := pos
		for pos < len(c.Idx) && int(c.Idx[pos]) < hi {
			pos++
		}
		out = append(out, a.Wrap(c.Idx[start:pos:pos], c.Val[start:pos:pos]))
	}
	return out
}
