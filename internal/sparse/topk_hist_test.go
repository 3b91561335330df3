package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func gaussBlock(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	dense := make([]float32, n)
	for i := range dense {
		dense[i] = float32(rng.NormFloat64())
	}
	return dense
}

// BenchmarkTopKDenseCutoff is the measurement behind histSelectMin: both
// ways of finding the k-th key, at k = n/100, on Gaussian blocks either
// side of the cutoff.
func BenchmarkTopKDenseCutoff(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1 << 10, 1 << 11, 1 << 12, 1 << 14, 74899, 1 << 20} {
		dense := gaussBlock(n, 1)
		k := max(1, n/100)
		ar := NewArena()
		b.Run(fmt.Sprintf("select/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ar.Reset()
				ar.topKDenseSelect(dense, 0, n, k)
			}
		})
		b.Run(fmt.Sprintf("hist/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ar.Reset()
				ar.topKDenseHist(dense, 0, n, k)
			}
		})
	}
}

// BenchmarkTopKDenseAllEqual is the histogram select's worst case: every
// magnitude equal, so the one occupied bucket is the whole block and the
// histogram pass buys nothing. select is the parent commit's TopKDense.
func BenchmarkTopKDenseAllEqual(b *testing.B) {
	n := 1 << 20
	dense := make([]float32, n)
	for i := range dense {
		dense[i] = 0.5
		if i%3 == 0 {
			dense[i] = -0.5
		}
	}
	ar := NewArena()
	b.Run("select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ar.Reset()
			ar.topKDenseSelect(dense, 0, n, n/100)
		}
	})
	b.Run("hist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ar.Reset()
			ar.topKDenseHist(dense, 0, n, n/100)
		}
	})
}

func sameChunkBits(a, b *Chunk) bool {
	if len(a.Idx) != len(b.Idx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || math.Float32bits(a.Val[i]) != math.Float32bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// histBlocks are the input families the histogram select must agree with
// quickselect on, each filling a block of the given length.
var histBlocks = []struct {
	name string
	fill func(rng *rand.Rand, d []float32)
}{
	{"gaussian", func(rng *rand.Rand, d []float32) {
		for i := range d {
			d[i] = float32(rng.NormFloat64())
		}
	}},
	{"all-equal", func(rng *rand.Rand, d []float32) { // the whole block in one bucket, every key tied
		for i := range d {
			d[i] = 0.75
			if rng.Intn(2) == 0 {
				d[i] = -0.75
			}
		}
	}},
	{"few-levels", func(rng *rand.Rand, d []float32) { // heavy ties at the threshold with whole buckets above it
		for i := range d {
			d[i] = float32(int(1)<<rng.Intn(5)) * float32(1-2*rng.Intn(2))
		}
	}},
	{"one-bucket", func(rng *rand.Rand, d []float32) { // same top 12 bits, different low bits
		for i := range d {
			d[i] = math.Float32frombits(0x3f400000 | uint32(rng.Intn(1<<19)) | uint32(rng.Intn(2))<<31)
		}
	}},
	{"mostly-zero", func(rng *rand.Rand, d []float32) {
		for i := range d {
			switch rng.Intn(40) {
			case 0:
				d[i] = float32(rng.NormFloat64())
			case 1:
				d[i] = float32(math.Copysign(0, -1))
			}
		}
	}},
	{"all-zero", func(rng *rand.Rand, d []float32) {
		for i := range d {
			if rng.Intn(2) == 0 {
				d[i] = float32(math.Copysign(0, -1))
			}
		}
	}},
	{"denormals", func(rng *rand.Rand, d []float32) { // bucket 0 shared with the zeros
		for i := range d {
			if rng.Intn(3) > 0 {
				d[i] = math.Float32frombits(uint32(rng.Intn(1<<21)) | uint32(rng.Intn(2))<<31)
			}
		}
	}},
	{"inf-nan", func(rng *rand.Rand, d []float32) {
		for i := range d {
			switch rng.Intn(8) {
			case 0:
				d[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
			case 1: // NaNs of either sign with random payloads, a few repeated
				d[i] = math.Float32frombits(0x7f800001 + uint32(rng.Intn(64)) | uint32(rng.Intn(2))<<31)
			case 2:
				d[i] = math.Float32frombits(0x7f800001 + uint32(rng.Intn(1<<23-1)))
			default:
				d[i] = float32(rng.NormFloat64())
			}
		}
	}},
}

func minKey(c *Chunk) uint32 {
	thr := uint32(math.MaxUint32)
	for _, v := range c.Val {
		thr = min(thr, absKey(v))
	}
	return thr
}

func countKeysFrom(block []float32, low uint32) (c int) {
	for _, v := range block {
		if absKey(v) >= low {
			c++
		}
	}
	return c
}

// staleHints are the remembered keys a selection must be indifferent to:
// the right one, ones off by a histogram bucket and by a factor of two
// either way, and keys from every corner of the key space.
func staleHints(exact uint32) []uint32 {
	hints := []uint32{
		absKey(1), 1, 0x7f800000, 0x7fc00001, 0x7fffffff,
	}
	if exact != 0 {
		hints = append(hints, exact, exact+warmMargin, scaleKey(exact, 0.5), scaleKey(exact, 2))
		if exact > warmMargin {
			hints = append(hints, exact-warmMargin)
		}
	}
	return hints
}

// bandOracle is the selection rule from before the band was learned — a
// remembered key is a warm hit exactly when k entries lie within warmMargin
// of it — kept as the oracle for what the learned band must not change: the
// result's bits, the key left behind, and which selections are cold, warm
// hits and fallbacks. It runs beside an arena and fails the test at the
// first selection where the two part ways. What it leaves free is what the
// learned band is for: Tightened and Widened.
type bandOracle struct {
	last map[[3]int]oracleHint
	st   SelectStats // Cold, WarmHit and Fallback as the fixed band counts them
}

type oracleHint struct {
	key  uint32
	cold bool // key comes from a cold select: the arena has no drift to narrow with
}

// newBandOracle starts an oracle beside ar, whatever ar has selected so far.
func newBandOracle(ar *Arena) *bandOracle {
	return &bandOracle{last: map[[3]int]oracleHint{}, st: ar.SelectStats()}
}

// remember plants key as the k-th key of (lo, hi, k)'s last selection, in
// the arena and in the oracle; the arena's drift stays whatever it was.
func (o *bandOracle) remember(ar *Arena, lo, hi, k int, key uint32) {
	ar.hint(lo, hi, k).key = key
	o.last[[3]int{lo, hi, k}] = oracleHint{key: key}
}

// selectFrom is ar.TopKDense checked against quickselect and the fixed band.
func (o *bandOracle) selectFrom(t *testing.T, ar *Arena, dense []float32, lo, hi, k int) *Chunk {
	t.Helper()
	shape := [3]int{lo, hi, k}
	prev := o.last[shape]
	want, thr := (*Arena)(nil).topKDenseSelect(dense, lo, hi, k)
	hit := prev.key != 0 && countKeysFrom(dense[lo:hi], warmLow(prev.key, warmMargin)) >= k
	switch {
	case hit:
		o.st.WarmHit++
		thr = minKey(want) // a warm hit remembers its k-th key even when it kept every non-zero
	case prev.key == 0:
		o.st.Cold++
	default:
		o.st.Fallback++
	}
	o.last[shape] = oracleHint{key: thr, cold: !hit}
	before := ar.SelectStats()
	got := ar.TopKDense(dense, lo, hi, k)
	st, h := ar.SelectStats(), ar.hint(lo, hi, k)
	switch {
	case !sameChunkBits(got, want):
		t.Fatalf("n=%d k=%d remembered key %#x: TopKDense kept %d entries, quickselect %d, or they differ", hi-lo, k, prev.key, got.Len(), want.Len())
	case h.key != thr:
		t.Fatalf("n=%d k=%d remembered key %#x: TopKDense left %#x behind, the fixed band leaves %#x", hi-lo, k, prev.key, h.key, thr)
	case st.Cold != o.st.Cold || st.WarmHit != o.st.WarmHit || st.Fallback != o.st.Fallback:
		t.Fatalf("n=%d k=%d remembered key %#x: selections went %+v, the fixed band's go %+v", hi-lo, k, prev.key, st, o.st)
	case h.band() < warmFloor || h.band() > warmMargin:
		t.Fatalf("n=%d k=%d: next band %#x is outside [warmFloor, warmMargin]", hi-lo, k, h.band())
	case prev.cold && st.Widened != before.Widened:
		t.Fatalf("n=%d k=%d: the first warm selection after a cold one was widened: it narrowed on drift from before the cold select", hi-lo, k)
	}
	return got
}

// checkWarm requires the selection of k from dense[lo:hi) to equal want
// when the arena remembers hint: through TopKDense beside the fixed-band
// oracle, at every block length — which must leave exact, the block's k-th
// key, behind if the selection has one, and nothing if it kept every
// non-zero and there were fewer than k — and from the warm filter itself,
// which may only decline when fewer than k entries pass it.
func checkWarm(t *testing.T, ar *Arena, dense []float32, lo, hi, k int, hint, exact uint32, want *Chunk) {
	t.Helper()
	oracle := newBandOracle(ar)
	oracle.remember(ar, lo, hi, k, hint)
	oracle.selectFrom(t, ar, dense, lo, hi, k)
	switch key := ar.hint(lo, hi, k).key; {
	case exact != 0 && key != exact:
		t.Fatalf("n=%d k=%d remembered key %#x: TopKDense left %#x behind, the k-th key is %#x", hi-lo, k, hint, key, exact)
	case want.Len() < k && key != 0:
		t.Fatalf("n=%d k=%d remembered key %#x: TopKDense kept %d entries and left key %#x behind", hi-lo, k, hint, want.Len(), key)
	}
	for _, band := range []uint32{warmMargin, warmFloor} {
		got, _, _ := ar.topKDenseWarm(dense, nil, lo, hi, k, hint, band)
		switch {
		case got != nil && !sameChunkBits(got, want):
			t.Fatalf("n=%d k=%d remembered key %#x band %#x: warm filter kept %v, quickselect %v", hi-lo, k, hint, band, got.Idx, want.Idx)
		case got == nil && countKeysFrom(dense[lo:hi], warmLow(hint, band)) >= k:
			t.Fatalf("n=%d k=%d remembered key %#x band %#x: warm filter declined with k candidates in reach", hi-lo, k, hint, band)
		}
	}
}

// TestTopKDenseHistMatchesSelect is the differential test of the histogram
// select and the warm filter against quickselect: the same Idx and the same
// Val bits, at block lengths straddling histSelectMin (through the
// dispatching TopKDense, cold and with every kind of remembered key) and
// below it (also calling the histogram path directly), inside a larger
// vector, for k at and around the non-zero count.
func TestTopKDenseHistMatchesSelect(t *testing.T) {
	ar := NewArena()
	onePass := map[string]bool{} // families that finished in one pass by tightening
	for _, fam := range histBlocks {
		for _, n := range []int{1, 2, 97, histSelectMin - 1, histSelectMin, histSelectMin + 1, 3*histSelectMin + 17} {
			rng := rand.New(rand.NewSource(int64(n)))
			const lo = 5
			vec := make([]float32, lo+n+3)
			for i := range vec {
				vec[i] = 1e30 // outside [lo, hi): must never be selected
			}
			fam.fill(rng, vec[lo:lo+n])
			nz := 0
			for _, v := range vec[lo : lo+n] {
				if v != 0 {
					nz++
				}
			}
			for _, k := range []int{1, 2, n / 100, n / 2, nz - 1, nz, nz + 1, n + 5} {
				if k < 1 {
					continue
				}
				ar.Reset()
				want, _ := ar.topKDenseSelect(vec, lo, lo+n, k)
				if got, _ := ar.topKDenseHist(vec, lo, lo+n, k); !sameChunkBits(got, want) {
					t.Fatalf("%s n=%d k=%d: histogram select kept %d entries, quickselect %d, or they differ", fam.name, n, k, got.Len(), want.Len())
				}
				if got := ar.TopKDense(vec, lo, lo+n, k); !sameChunkBits(got, want) {
					t.Fatalf("%s n=%d k=%d: TopKDense differs from quickselect", fam.name, n, k)
				}
				if want.Len() != min(k, nz) {
					t.Fatalf("%s n=%d k=%d: kept %d entries of %d non-zeros", fam.name, n, k, want.Len(), nz)
				}
				var kth uint32 // KthLargestAbs: rank k among the non-zeros, 0 if there are fewer
				if k <= nz {
					kth = minKey(want)
				}
				if got := math.Float32bits(KthLargestAbs(vec[lo:lo+n], k)); got != kth {
					t.Fatalf("%s n=%d k=%d: KthLargestAbs = %#x, the k-th key is %#x", fam.name, n, k, got, kth)
				}
				exact := kth // the k-th key, if the selection leaves one to remember
				if k == nz {
					exact = 0
				}
				for _, hint := range staleHints(exact) {
					checkWarm(t, ar, vec, lo, lo+n, k, hint, exact, want)
				}
				if exact == 0 {
					continue
				}
				// Given the right key the filter must suffice, and where more
				// entries pass it than its buffer holds, so must tightening,
				// in the same pass.
				got, thr, tightened := ar.topKDenseWarm(vec, nil, lo, lo+n, k, exact, warmMargin)
				if got == nil || thr != exact {
					t.Fatalf("%s n=%d k=%d: warm filter given the k-th key %#x fell back or found %#x", fam.name, n, k, exact, thr)
				}
				if pass := countKeysFrom(vec[lo:lo+n], warmLow(exact, warmMargin)); tightened != (pass > warmScratch*k) {
					t.Fatalf("%s n=%d k=%d: %d entries pass the filter, buffer %d, tightened=%v", fam.name, n, k, pass, warmScratch*k, tightened)
				}
				onePass[fam.name] = onePass[fam.name] || tightened
			}
		}
	}
	for _, name := range []string{"all-equal", "few-levels"} {
		if !onePass[name] {
			t.Errorf("%s: no selection overflowed the candidate buffer, tightening went untested", name)
		}
	}
}

// FuzzTopKDense feeds arbitrary bit patterns (every NaN payload, both
// zeros, denormals) to all three selections, the warm one with an arbitrary
// remembered key, and requires identical results.
func FuzzTopKDense(f *testing.F) {
	le := func(bits ...uint32) []byte {
		var b []byte
		for _, v := range bits {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f.Add(le(0x3f800000, 0xbf800000, 0x3f800000, 0, 0x80000000), uint16(2), uint32(0x3f800000))          // ties, both zeros
	f.Add(le(0x7fc00000, 0xffc00001, 0x7f800000, 0xff800000, 0x40000000), uint16(3), uint32(0x7fc00001)) // NaNs and infinities
	f.Add(le(1, 2, 0x80000003, 0x0007ffff, 0x00080000), uint16(4), uint32(1))                            // denormals across bucket 0/1
	f.Add(le(0x3f400001, 0x3f400002, 0x3f47ffff, 0x3f480000), uint16(1), uint32(0x3f480000))             // one bucket and its neighbour
	f.Add(le(5, 4, 3, 2, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9), uint16(2), uint32(1))                            // the buffer fills: tightening
	f.Add(le(0, 0, 0), uint16(1), uint32(0x7fffffff))
	f.Add([]byte{}, uint16(7), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, k uint16, hint uint32) {
		dense := make([]float32, len(data)/4)
		for i := range dense {
			dense[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if len(dense) == 0 || k == 0 {
			return
		}
		want, _ := (*Arena)(nil).topKDenseSelect(dense, 0, len(dense), int(k))
		got, _ := (*Arena)(nil).topKDenseHist(dense, 0, len(dense), int(k))
		if !sameChunkBits(got, want) {
			t.Fatalf("k=%d over %x: histogram select %v/%x, quickselect %v/%x", k, data, got.Idx, got.Val, want.Idx, want.Val)
		}
		// A remembered key is the key of a non-zero value.
		hint = max(absKey(math.Float32frombits(hint)), 1)
		checkWarm(t, NewArena(), dense, 0, len(dense), int(k), hint, 0, want)
	})
}
