package sparse

// The warm-started selection: one read of a block instead of the cold
// select's three, at every block length.
//
// A reducer selects from the same blocks every synchronization, and a
// block's k-th largest key moves little from one synchronization to the
// next (a residual in steady state drifts by a few percent). So the arena
// remembers, per (lo, hi, k), the k-th key of its last selection, and the
// next selection gathers — in one pass, in index order — only the entries
// whose key is at least that key lowered by warmMargin. If at least k
// entries qualify, the top-k of the block is the top-k of those candidates:
// every entry left out has a key below k others. If fewer qualify, the
// threshold fell by more than the margin and the cold select runs instead.
// Either way the result is the exact selection; the remembered key only
// decides how much work finding it takes.

// warmMargin is how far below the remembered key the filter admits: one
// histogram bucket, 3–6 % in magnitude. BenchmarkTopKDenseWarm holds the
// numbers (n = 2²⁰ in 14 blocks, k = 748 each, per worker and sync): the
// histogram select takes 2.9 ms; the filter given the right keys buffers
// 1.42k entries and takes 1.3 ms; it still hits when the keys have since
// fallen by 3 % (1.1 ms) and misses at 5 %, which costs the wasted pass on
// top of the histogram select, 3.9 ms or 1.35× — the worst case. Two buckets
// would turn that miss into a hit but buffer 2.0k entries on every call
// (1.5 ms, the rose-5pct row); in the measured runs a block's key falls by
// more than 5 % on 3 selections in 100, so the wider margin would pay
// 0.2 ms on each call to save 2.4 ms on one in thirty.
const warmMargin = 1 << histShift

// warmScratch sizes the candidate buffer at warmScratch·k entries. The
// filter's usual 1.4k–2k candidates never fill it. A threshold that rose
// does — the residual doubles over the first two synchronizations, and 22k
// entries pass (rose-2x, 3.2 ms) — and so does a residual whose kept
// entries are zeroed for good (cliff: everything sits at or below the last
// threshold, 5k pass, 2.6 ms against 3.2 ms cold); tighten then cuts the
// buffer back to k. A buffer of 8k holds the cliff case without tightening
// and measures the same, because the time goes to buffering and ranking the
// candidates, not to tightening, so the smaller buffer stays.
const warmScratch = 4

// maxSelHints bounds the remembered-key table. A reducer selects from
// m = P/d blocks, far fewer; the bound only keeps an arena that is handed
// ever-changing shapes from growing without limit.
const maxSelHints = 1024

// selHint is the k-th key of the arena's last selection of k from
// dense[lo:hi), or 0 when that selection had no such key.
type selHint struct {
	lo, hi, k int
	key       uint32
}

// SelectStats counts how the arena's TopKDense calls, at every block
// length, found their k-th key. Cold, WarmHit and Fallback add up to the
// number of selections.
type SelectStats struct {
	Cold      uint64 // no remembered key: the cold select (quickselect or histogram, by length)
	WarmHit   uint64 // the warm filter held the whole top-k: one pass
	Tightened uint64 // warm hits that filled the candidate buffer on the way
	Fallback  uint64 // the filter came up short: a wasted pass, then the cold select
}

// Add accumulates o into s.
func (s *SelectStats) Add(o SelectStats) {
	s.Cold += o.Cold
	s.WarmHit += o.WarmHit
	s.Tightened += o.Tightened
	s.Fallback += o.Fallback
}

// SelectStats returns the counts since the arena was created; Reset does
// not clear them. A nil arena remembers nothing and reports zeros.
func (a *Arena) SelectStats() SelectStats {
	if a == nil {
		return SelectStats{}
	}
	return a.sel
}

var candIdxPool SlicePool[int32]

// hint returns the table entry for (lo, hi, k), adding one with no key if
// the shape is new. The match is exact — a lossy index would let two of a
// reducer's blocks evict each other on every call. A reducer walks its
// blocks in the same order every synchronization, so the scan starts at the
// entry after the last one found and the expected cost is one compare. The
// returned pointer is valid until the next call.
//
//spardl:hotpath
func (a *Arena) hint(lo, hi, k int) *selHint {
	n := len(a.hints)
	for j := 0; j < n; j++ {
		i := a.hintNext + j
		if i >= n {
			i -= n
		}
		if h := &a.hints[i]; h.lo == lo && h.hi == hi && h.k == k {
			a.hintNext = i + 1
			return h
		}
	}
	i := n
	if n < maxSelHints {
		a.hints = append(a.hints, selHint{})
	} else {
		i = a.hintNext % n // full: replace in rotation
	}
	a.hints[i] = selHint{lo: lo, hi: hi, k: k}
	a.hintNext = i + 1
	return &a.hints[i]
}

// warmLow is the lowest key the warm filter admits given the remembered
// key: warmMargin below it, but never 0, the key of the zeros, which must
// not qualify.
func warmLow(hint uint32) uint32 {
	if hint > warmMargin {
		return hint - warmMargin
	}
	return 1
}

// topKDenseWarm is TopKDense given hint, the k-th key of an earlier
// selection from the same block. It returns nil when fewer than k entries
// have a key within warmMargin of hint, and otherwise the exact selection,
// its k-th key, and whether the candidate buffer filled on the way.
//
//spardl:hotpath
func (a *Arena) topKDenseWarm(dense []float32, lo, hi, k int, hint uint32) (out *Chunk, thr uint32, tightened bool) {
	low := warmLow(hint)
	// Eight entries of slack: a group of eight is buffered without asking,
	// entry by entry, whether there is room.
	idx := candIdxPool.Get(warmScratch*k + 8)
	val := densePool.Get(warmScratch*k + 8)
	n := 0
	block := dense[lo:hi]
	for i := 0; i < len(block); i += 8 {
		g := block[i:min(i+8, len(block))]
		if len(g) == 8 {
			// Keys are below 2³¹ and low is at most 2³¹, so key−low has its
			// sign bit set exactly when key < low; the AND has it set when
			// that holds for all eight, which is the common case.
			b := (*[8]float32)(g)
			if int32((absKey(b[0])-low)&(absKey(b[1])-low)&(absKey(b[2])-low)&(absKey(b[3])-low)&
				(absKey(b[4])-low)&(absKey(b[5])-low)&(absKey(b[6])-low)&(absKey(b[7])-low)) < 0 {
				continue
			}
		}
		if n+8 > len(idx) {
			low, n, tightened = tighten(idx[:n], val[:n], k), k, true
		}
		// Every entry is written; only a candidate advances n and so keeps
		// its slot. Which entries pass is close to random, and a branch on
		// it costs more than the stores.
		for j, v := range g {
			idx[n], val[n] = int32(lo+i+j), v
			n += int((low - 1 - absKey(v)) >> 31) // 1 when key >= low
		}
	}
	if n >= k {
		var strict int
		thr, strict = rankVals(val[:n], k)
		keepTopK(idx[:n], val[:n], thr, k-strict)
		out = a.Get(k)
		out.Idx, out.Val = append(out.Idx, idx[:k]...), append(out.Val, val[:k]...)
	}
	candIdxPool.Put(idx)
	densePool.Put(val)
	return out, thr, tightened
}

// tighten cuts a full candidate buffer down to its own top-k, at the front
// and in index order, and returns the lowest key that can still enter the
// selection: one above the buffer's k-th largest. The buffer holds every
// possible member of the top-k among the entries read so far, so its top-k
// is theirs; a later entry at or below the k-th key loses to k entries with
// lower indices whatever else follows. That is what lets a block whose
// threshold rose — or one whose magnitudes are all equal — finish in the
// same single pass.
//
//spardl:hotpath
func tighten(idx []int32, val []float32, k int) (low uint32) {
	thr, strict := rankVals(val, k)
	keepTopK(idx, val, thr, k-strict)
	return thr + 1
}

// rankVals is rankKey over the keys of vals.
//
//spardl:hotpath
func rankVals(vals []float32, k int) (thr uint32, strict int) {
	keys := keyPool.Get(len(vals))
	for j, v := range vals {
		keys[j] = absKey(v)
	}
	thr, strict = rankKey(keys, k)
	keyPool.Put(keys)
	return thr, strict
}

// keepTopK moves to the front of idx/val, in order, the entries whose key
// exceeds thr plus the first slots entries whose key equals it (the
// lower-index tie rule).
//
//spardl:hotpath
func keepTopK(idx []int32, val []float32, thr uint32, slots int) {
	w := 0
	for j, v := range val {
		key := absKey(v)
		if key == thr {
			if slots == 0 {
				continue
			}
			slots--
			key++
		}
		idx[w], val[w] = idx[j], v
		w += int((thr - key) >> 31) // 1 when key > thr
	}
}
