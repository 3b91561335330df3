package sparse

import "math"

// Top-k selection with deterministic tie-breaking.
//
// Every selection in this repository keeps the k entries with the largest
// absolute values; ties on |value| are broken in favour of the *lower*
// index. Determinism matters: SparDL's correctness argument requires that
// workers holding identical data make identical selections (e.g. both sides
// of an R-SAG exchange, or all members of a team after B-SAG), otherwise
// model replicas diverge.
//
// Selections compare *bit keys*, not float values: absKey maps a float32 to
// a uint32 whose unsigned order is a total order on magnitudes — finite
// values in |v| order, then ±Inf, then NaNs (ordered by payload bits). IEEE
// float comparisons are not total (every ordered comparison against a NaN
// is false), so a single NaN gradient would otherwise make quickselect's
// partition invariants silently collapse: the selection count drifts away
// from k and replicas holding identical data stop making identical
// selections. Under the key order a poisoned gradient still selects exactly
// k entries, NaN/Inf entries rank highest (they carry the strongest
// "signal" and must not be dropped asymmetrically), and ties — including
// between two NaNs with equal payloads, or between +Inf and -Inf — still
// break to the lower index on every worker.

// The quickselect scratch buffers come from the package key pool: selections
// run once per block per SRS step on every worker, so at paper-like sizes
// (n=1M, P=14) a per-call make([]uint32, n) would dominate allocation
// volume.

// absKey maps v to a uint32 whose unsigned order totally orders absolute
// values: clearing the sign bit leaves the IEEE magnitude ordering for
// finite values, +Inf (0x7f800000) above every finite value, and NaN
// payloads (0x7f800001..0x7fffffff) deterministically above +Inf.
func absKey(v float32) uint32 { return math.Float32bits(v) &^ (1 << 31) }

// keyPool recycles the quickselect key scratch; see SlicePool.
var keyPool SlicePool[uint32]

// kthLargestKey returns the k-th largest key in keys (1-based k) using an
// in-place iterative quickselect with median-of-three pivoting. keys is
// clobbered. It panics if k is out of range.
func kthLargestKey(keys []uint32, k int) uint32 {
	if k < 1 || k > len(keys) {
		panic("sparse: quickselect k out of range")
	}
	// Select the element with rank len(keys)-k in ascending key order.
	target := len(keys) - k
	lo, hi := 0, len(keys)-1
	for lo < hi {
		// Median-of-three pivot guards against sorted inputs, which are
		// common for already-selected gradient chunks.
		mid := lo + (hi-lo)/2
		if keys[mid] < keys[lo] {
			keys[mid], keys[lo] = keys[lo], keys[mid]
		}
		if keys[hi] < keys[lo] {
			keys[hi], keys[lo] = keys[lo], keys[hi]
		}
		if keys[hi] < keys[mid] {
			keys[hi], keys[mid] = keys[mid], keys[hi]
		}
		pivot := keys[mid]
		i, j := lo, hi
		for i <= j {
			for keys[i] < pivot {
				i++
			}
			for keys[j] > pivot {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		switch {
		case target <= j:
			hi = j
		case target >= i:
			lo = i
		default:
			return keys[target]
		}
	}
	return keys[lo]
}

// kthLargestAbsKey returns the key of the k-th largest magnitude in vals.
func kthLargestAbsKey(vals []float32, k int) uint32 {
	keys := keyPool.Get(len(vals))
	for i, v := range vals {
		keys[i] = absKey(v)
	}
	thr := kthLargestKey(keys, k)
	keyPool.Put(keys)
	return thr
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// TopKChunk splits c into the k entries with the largest |value| (kept) and
// the remainder (dropped). Ties on |value| keep the lower index; NaN/Inf
// values order deterministically (see absKey). If k >= c.Len() the whole
// chunk is kept and dropped is empty. Both returned chunks are freshly
// allocated and sorted by index.
func TopKChunk(c *Chunk, k int) (kept, dropped *Chunk) {
	return (*Arena)(nil).TopKChunk(c, k)
}

// TopKChunk is the arena-allocating variant of the package-level TopKChunk.
func (a *Arena) TopKChunk(c *Chunk, k int) (kept, dropped *Chunk) {
	n := c.Len()
	if k >= n {
		return a.Clone(c), a.Get(0)
	}
	if k <= 0 {
		return a.Get(0), a.Clone(c)
	}
	thr := kthLargestAbsKey(c.Val, k)

	kept = a.Get(k)
	dropped = a.Get(n - k)
	// First pass: everything strictly above the threshold is kept. Entry
	// indices come from IdxAt, so a densified merge result re-sparsifies
	// here transparently — its zero positions are real entries that rank
	// lowest and land in dropped (with zero residual contribution).
	strict := 0
	for _, v := range c.Val {
		if absKey(v) > thr {
			strict++
		}
	}
	slots := k - strict // entries exactly at the threshold that fit
	for i, v := range c.Val {
		switch {
		case absKey(v) > thr:
			kept.Idx = append(kept.Idx, c.IdxAt(i))
			kept.Val = append(kept.Val, v)
		case absKey(v) == thr && slots > 0:
			kept.Idx = append(kept.Idx, c.IdxAt(i))
			kept.Val = append(kept.Val, v)
			slots--
		default:
			dropped.Idx = append(dropped.Idx, c.IdxAt(i))
			dropped.Val = append(dropped.Val, v)
		}
	}
	return kept, dropped
}

// TopKDense selects the top-k entries of dense[lo:hi) by absolute value and
// returns them as a chunk with absolute indices. Ties keep the lower index;
// NaN/Inf values order deterministically (see absKey). Zeros are never
// selected (they carry no gradient information), so the result may hold
// fewer than k entries for very sparse inputs. This package-level form
// keeps no state between calls; the Arena method remembers each block's
// threshold, whatever its length, and starts the next selection from it.
func TopKDense(dense []float32, lo, hi, k int) *Chunk {
	return (*Arena)(nil).TopKDense(dense, lo, hi, k)
}

// Histogram select geometry: one counter per value of the top histBits
// bits of an absKey (the 8 exponent bits plus the 4 leading mantissa bits),
// so neighbouring buckets differ by about 4% in magnitude.
const (
	histBits    = 12
	histShift   = 31 - histBits
	histBuckets = 1 << histBits
)

// histSelectMin is the block length from which the cold select — a
// selection with no usable remembered key — finds its threshold with the
// histogram instead of quickselect. The histogram pays a fixed price —
// clearing histBuckets counters and walking them — that quickselect over a
// short block undercuts: BenchmarkTopKDenseCutoff puts the break-even near
// 512 elements, measured in a loop that keeps the counters hot in L1. The
// cutoff sits a factor of four above that (there the histogram measures
// 9 µs against 15 µs), so that a short block — the per-layer pipeline
// selects on segments down to 32 elements — does not drag 16 KB of
// counters through the cache to save a microsecond or two. It chooses the
// cold algorithm only: the warm filter is tried at every length.
const histSelectMin = 2048

// TopKDense is the arena-allocating variant of the package-level TopKDense.
// The selection is exact at every size; only the way the k-th key is found
// varies. On a nil arena, or for a (lo, hi, k) this arena has not selected
// from before, the cold select runs. Otherwise the arena remembers the k-th
// key of its last selection with the same (lo, hi, k) and how far that key
// has been moving, and tries the one-pass warm filter first (see
// topKDenseWarm) in a band that wide; short of k candidates there, it tries
// once more in all of warmMargin, and falls back to the cold select when
// the block's threshold fell by more than that. What is remembered decides
// which of these run, never what they return.
func (a *Arena) TopKDense(dense []float32, lo, hi, k int) *Chunk {
	return a.TopKDenseAdd(dense, nil, lo, hi, k)
}

// TopKDenseAdd is AddInto(dense[lo:hi], add[lo:hi]) followed by TopKDense:
// the same sums left in dense, the same selection, remembered key and
// SelectStats. A warm selection adds in the filter's first pass, so the
// block is read once for both; the second pass and the cold select, cold
// or fallen back to, read the summed block. A nil add adds nothing.
func (a *Arena) TopKDenseAdd(dense, add []float32, lo, hi, k int) *Chunk {
	if hi-lo <= 0 || k <= 0 {
		if add != nil && hi > lo {
			AddInto(dense[lo:hi], add[lo:hi])
		}
		return a.Get(0)
	}
	var h *selHint
	if a != nil {
		h = a.hint(lo, hi, k)
	}
	switch {
	case h == nil: // a nil arena remembers nothing
	case h.key == 0:
		a.sel.Cold++
	default:
		band := h.band()
		out, thr, tightened := a.topKDenseWarm(dense, add, lo, hi, k, h.key, band)
		add = nil // the pass read the whole block and left it summed
		if out == nil && band < warmMargin {
			out, thr, tightened = a.topKDenseWarm(dense, nil, lo, hi, k, h.key, warmMargin)
			if out != nil {
				a.sel.Widened++
			}
		}
		if out != nil {
			h.moved(thr)
			a.sel.WarmHit++
			if tightened {
				a.sel.Tightened++
			}
			return out
		}
		a.sel.Fallback++
	}
	if add != nil {
		AddInto(dense[lo:hi], add[lo:hi])
	}
	out, thr := a.selectCold(dense, lo, hi, k)
	if h != nil {
		h.key, h.drift = thr, noDrift
	}
	return out
}

// selectCold is TopKDense with nothing remembered: quickselect over a short
// block, the histogram select from histSelectMin elements. It also returns
// the selection's k-th key, or 0 when the block has no more than k
// non-zeros and every one of them is kept.
func (a *Arena) selectCold(dense []float32, lo, hi, k int) (*Chunk, uint32) {
	if hi-lo < histSelectMin {
		return a.topKDenseSelect(dense, lo, hi, k)
	}
	return a.topKDenseHist(dense, lo, hi, k)
}

// topKDenseSelect is selectCold by quickselect over every non-zero key of
// the block: the short-block path, and the reference the other selections
// are tested against.
func (a *Arena) topKDenseSelect(dense []float32, lo, hi, k int) (*Chunk, uint32) {
	nz := 0
	for i := lo; i < hi; i++ {
		if dense[i] != 0 {
			nz++
		}
	}
	if nz == 0 {
		return a.Get(0), 0
	}
	if k >= nz {
		return a.FromDense(dense, lo, hi), 0
	}
	keys := keyPool.Get(nz)[:0]
	for i := lo; i < hi; i++ {
		if dense[i] != 0 {
			keys = append(keys, absKey(dense[i]))
		}
	}
	thr, strict := rankKey(keys, k)
	keyPool.Put(keys)
	return a.collectTopK(dense, lo, hi, k, thr, k-strict), thr
}

// rankKey returns the k-th largest key in keys (1-based) and how many keys
// are strictly larger — the ones a selection keeps before it breaks ties.
// keys is clobbered.
func rankKey(keys []uint32, k int) (thr uint32, strict int) {
	thr = kthLargestKey(keys, k)
	for _, key := range keys {
		if key > thr {
			strict++
		}
	}
	return thr, strict
}

// histRank returns the k-th largest key among block's nz non-zero values
// (1-based) and how many keys are strictly larger, in two reads of the block
// and no block-sized scratch: a histogram of the keys' top histBits bits
// locates the bucket holding rank k, and quickselect runs over that bucket's
// keys alone (a few percent of the block unless magnitudes cluster; all of
// it when they are all equal, which costs what a whole-block quickselect
// does). When k > nz there is no such key and thr is 0.
func histRank(block []float32, k int) (thr uint32, strict, nz int) {
	var hist [histBuckets]uint32
	zeros := 0
	for _, v := range block {
		key := absKey(v)
		hist[key>>histShift&(histBuckets-1)]++
		if key == 0 {
			zeros++
		}
	}
	nz = len(block) - zeros
	if k > nz {
		return 0, 0, nz
	}
	// Walk down from the largest bucket to the one holding rank k. Bucket 0
	// also counts the zeros, but they rank below every non-zero key and
	// k <= nz, so they can neither stop the walk early nor displace rank k
	// among the candidates.
	b, above := histBuckets-1, 0
	for above+int(hist[b]) < k {
		above += int(hist[b])
		b--
	}
	cand := keyPool.Get(int(hist[b]))[:0]
	for _, v := range block {
		if key := absKey(v); key>>histShift == uint32(b) {
			cand = append(cand, key)
		}
	}
	thr, strict = rankKey(cand, k-above)
	keyPool.Put(cand)
	return thr, above + strict, nz
}

// topKDenseHist is selectCold in three reads of the block: histRank finds
// the k-th key, and the entries at or above it are collected in index
// order.
func (a *Arena) topKDenseHist(dense []float32, lo, hi, k int) (*Chunk, uint32) {
	thr, strict, nz := histRank(dense[lo:hi], k)
	if nz == 0 {
		return a.Get(0), 0
	}
	if k >= nz {
		return a.FromDense(dense, lo, hi), 0
	}
	return a.collectTopK(dense, lo, hi, k, thr, k-strict), thr
}

// collectTopK gathers, in index order, every entry of dense[lo:hi) whose
// key exceeds thr plus the first slots entries whose key equals it (the
// lower-index tie rule) — k entries in all. thr is the key of a non-zero
// value, so zeros never qualify.
func (a *Arena) collectTopK(dense []float32, lo, hi, k int, thr uint32, slots int) *Chunk {
	out := a.Get(k)
	for i := lo; i < hi; i++ {
		v := dense[i]
		key := absKey(v)
		if key < thr {
			continue
		}
		if key == thr {
			if slots == 0 {
				continue
			}
			slots--
		}
		out.Idx = append(out.Idx, int32(i))
		out.Val = append(out.Val, v)
	}
	return out
}

// ThresholdChunk splits c into entries with |value| >= thr (kept) and the
// rest (dropped). This is the "threshold pruning" primitive Ok-Topk uses in
// place of exact top-k; the number of kept entries is data-dependent. thr
// is a magnitude (non-negative). The comparison runs in the total key
// order (see absKey), so NaN/Inf entries rank above every finite threshold
// and are kept — a raw float compare would silently drop them (every
// ordered comparison against NaN is false) and desynchronize replicas.
func ThresholdChunk(c *Chunk, thr float32) (kept, dropped *Chunk) {
	return (*Arena)(nil).ThresholdChunk(c, thr)
}

// ThresholdChunk is the arena-allocating variant of the package-level
// ThresholdChunk: one counting pass sizes both outputs exactly.
func (a *Arena) ThresholdChunk(c *Chunk, thr float32) (kept, dropped *Chunk) {
	thrKey := absKey(thr)
	nk := 0
	for _, v := range c.Val {
		if absKey(v) >= thrKey {
			nk++
		}
	}
	kept = a.Get(nk)
	dropped = a.Get(c.Len() - nk)
	for i, v := range c.Val {
		if absKey(v) >= thrKey {
			kept.Idx = append(kept.Idx, c.IdxAt(i))
			kept.Val = append(kept.Val, v)
		} else {
			dropped.Idx = append(dropped.Idx, c.IdxAt(i))
			dropped.Val = append(dropped.Val, v)
		}
	}
	return kept, dropped
}

// ThresholdDense extracts entries of dense[lo:hi) with |value| >= thr,
// compared in the total key order like ThresholdChunk (NaN/Inf are kept).
func ThresholdDense(dense []float32, lo, hi int, thr float32) *Chunk {
	return (*Arena)(nil).ThresholdDense(dense, lo, hi, thr)
}

// ThresholdDense is the arena-allocating variant of the package-level
// ThresholdDense.
func (a *Arena) ThresholdDense(dense []float32, lo, hi int, thr float32) *Chunk {
	thrKey := absKey(thr)
	nk := 0
	for i := lo; i < hi; i++ {
		if v := dense[i]; v != 0 && absKey(v) >= thrKey {
			nk++
		}
	}
	out := a.Get(nk)
	for i := lo; i < hi; i++ {
		if v := dense[i]; v != 0 && absKey(v) >= thrKey {
			out.Idx = append(out.Idx, int32(i))
			out.Val = append(out.Val, v)
		}
	}
	return out
}

// KthLargestAbs returns the k-th largest |value| among the non-zero entries
// of dense (1-based). It returns 0 when there are fewer than k non-zeros.
// Ok-Topk uses this to calibrate its pruning threshold. The rank is taken
// in the total key order (see absKey), so poisoned inputs still yield a
// deterministic threshold; for finite inputs the result is exactly the
// k-th largest absolute value. It is histRank — two reads of dense and
// scratch for one histogram bucket's keys, not for all of them.
func KthLargestAbs(dense []float32, k int) float32 {
	if k < 1 {
		return 0
	}
	thr, _, _ := histRank(dense, k)
	return math.Float32frombits(thr)
}
