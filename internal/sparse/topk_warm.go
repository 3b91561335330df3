package sparse

// The warm-started selection: one read of a block instead of the cold
// select's three, at every block length.
//
// A reducer selects from the same blocks every synchronization, and a
// block's k-th largest key moves little from one synchronization to the
// next (a residual in steady state drifts by a few percent). So the arena
// remembers, per (lo, hi, k), the k-th key of its last selection, and the
// next selection gathers — in one pass, in index order — only the entries
// whose key is at least that key lowered by a band. If at least k entries
// qualify, the top-k of the block is the top-k of those candidates: every
// entry left out has a key below k others. If fewer qualify, the threshold
// fell by more than the band and the cold select runs instead. Either way
// the result is the exact selection; the remembered key only decides how
// much work finding it takes.
//
// The band is as wide as the key has been moving (selHint.band), at most
// warmMargin. A selection that comes up short in a narrower band is tried
// once more with warmMargin before it goes cold, so a selection is a warm
// hit exactly when k entries lie within warmMargin of the remembered key,
// whatever the arena has learned: the learned band decides how many
// candidates a warm hit buffers and ranks, never which selections are warm,
// and so never the keys remembered next either.

// warmMargin is the widest band below the remembered key the filter admits,
// and the one that decides whether a selection is warm: one histogram
// bucket, 3–6 % in magnitude. BenchmarkTopKDenseWarm holds the numbers
// (n = 2²⁰ in 14 blocks, k = 748 each, per worker and sync, the fastest of
// three runs): the histogram select takes 3.2 ms; the filter given the right
// keys buffers 1.42k entries and takes 1.3 ms; it still hits when the keys
// have since fallen by 3 % (1.2 ms) and misses at 5 %, which costs the
// wasted pass on top of the histogram select, 4.0 ms or 1.25× — the worst
// case. Two buckets would turn that miss into a hit but buffer 2.0k entries
// on every such call (1.7 ms, the rose-5pct row); in the measured runs a
// block's key falls by more than 5 % on 3 selections in 100, so the wider
// margin would pay 0.4 ms on each call to save 2.7 ms on one in thirty.
const warmMargin = 1 << histShift

// warmFloor is the narrowest band: an eighth of a bucket, 0.4–0.8 %. A whole
// bucket is the right band for a key that may have moved by one and far too
// wide for a key that has not. Error feedback takes away everything above
// the key and lets everything below it grow, so a residual in steady state
// piles up just under its key — the stationary rows, 150 synchronizations
// of one gradient: the key moves by under 0.2 % a synchronization, the
// bucket below it holds 5.7k entries, which overflow the candidate buffer on
// every selection (2.7 ms, what the cliff costs), and the learned band holds
// 1.6k (1.4 ms). The band is twice the drift, so that a key falling as far
// as it lately has finds as much room again; the floor keeps a key that
// stood still from paying a second pass for its first small step. The drift
// forgets an eighth of itself per selection. Counted on the benchmark's
// workloads, floors of 1/8, 1/32 and 1/128 of a bucket buffer the same
// candidates to within 3 %; a factor of 4 for 2 buffers 10 % more on
// sync-live-buckets and saves second passes on 2 % of sync-tcp-small's
// selections; forgetting a half, a quarter, an eighth or a sixteenth moves
// candidates by under 2 % and second passes on sync-tcp-small from 8.7 % of
// selections through 5.0 and 2.4 to 1.0. Timed end to end by the prototype
// behind this band, the floors and the factors were inside each other's
// noise, so the values stay where the counts put them: in the middle.
const warmFloor = warmMargin / 8

// warmScratch sizes the candidate buffer at warmScratch·k entries. The
// filter's usual 1.4k–2k candidates never fill it. A threshold that rose
// does — the residual doubles over the first two synchronizations, and 22k
// entries pass (rose-2x, 3.5 ms) — and so does a residual whose kept
// entries are zeroed for good (cliff: everything sits at or below the last
// threshold, 5k pass, 2.7 ms against 3.8 ms cold); tighten then cuts the
// buffer back to k. A buffer of 8k holds the cliff case without tightening
// and measures the same, because the time goes to buffering and ranking the
// candidates, not to tightening, so the smaller buffer stays — and the
// stationary residual, which used to fill it at 5.7k on every selection of
// every synchronization, no longer comes near it.
const warmScratch = 4

// maxSelHints bounds the remembered-key table. A reducer selects from
// m = P/d blocks, far fewer; the bound only keeps an arena that is handed
// ever-changing shapes from growing without limit.
const maxSelHints = 1024

// selHint is what the arena remembers of its last selection of k from
// dense[lo:hi): key, its k-th key, or 0 when that selection had no such
// key; and drift, how far the key has been moving — the largest distance
// between one warm selection's key and the next, each forgotten by an
// eighth per selection — or noDrift when key comes from a cold select and
// has not moved yet.
type selHint struct {
	lo, hi, k int
	key       uint32
	drift     uint32
}

const noDrift = ^uint32(0)

// band is how far below key the next warm filter admits: twice the drift,
// no less than warmFloor and no more than warmMargin — which is what
// noDrift comes to.
//
//spardl:hotpath
func (h *selHint) band() uint32 {
	return min(warmMargin, max(warmFloor, 2*min(h.drift, warmMargin)))
}

// moved records that a warm selection found thr where key was remembered.
//
//spardl:hotpath
func (h *selHint) moved(thr uint32) {
	step := max(thr, h.key) - min(thr, h.key)
	if h.drift != noDrift {
		step = max(step, h.drift-h.drift/8)
	}
	h.key, h.drift = thr, step
}

// SelectStats counts how the arena's TopKDense calls, at every block
// length, found their k-th key. Cold, WarmHit and Fallback add up to the
// number of selections.
type SelectStats struct {
	Cold      uint64 // no remembered key: the cold select (quickselect or histogram, by length)
	WarmHit   uint64 // the warm filter held the whole top-k: one pass
	Tightened uint64 // warm hits that filled the candidate buffer on the way
	Widened   uint64 // warm hits that came up short in the learned band and held in warmMargin: two passes
	Fallback  uint64 // the filter came up short: a wasted pass, then the cold select
}

// Add accumulates o into s.
func (s *SelectStats) Add(o SelectStats) {
	s.Cold += o.Cold
	s.WarmHit += o.WarmHit
	s.Tightened += o.Tightened
	s.Widened += o.Widened
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
// key: band below it, but never 0, the key of the zeros, which must not
// qualify.
func warmLow(hint, band uint32) uint32 {
	if hint > band {
		return hint - band
	}
	return 1
}

// topKDenseWarm is TopKDense given hint, the k-th key of an earlier
// selection from the same block, and the band to look in. It returns nil
// when fewer than k entries have a key within band of hint, and otherwise
// the exact selection, its k-th key, and whether the candidate buffer filled
// on the way.
//
//spardl:hotpath
func (a *Arena) topKDenseWarm(dense []float32, lo, hi, k int, hint, band uint32) (out *Chunk, thr uint32, tightened bool) {
	low := warmLow(hint, band)
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
