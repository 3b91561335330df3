package sparse

import (
	"math"
	"math/rand"
	"testing"

	"spardl/internal/cpuid"
)

// filterFunc is warmFilter's type.
type filterFunc = func([]int32, []float32, []float32, int32, uint32) (int, int)

// onFilter runs f with topKDenseWarm's pass over whole groups set to
// filter, so a test can hold the host's path to warmFilterGo.
func onFilter(filter filterFunc, f func()) {
	defer func(saved filterFunc) { warmFilter = saved }(warmFilter)
	warmFilter = filter
	f()
}

// filterLows are the lows a filter must agree on for block: 0, where every
// entry passes; 1, where every non-zero does; the block's k-th key for a
// tenth of it; and 2³¹ and above, where the candidate bit is the wrapped
// sign of low−1−key and no compare of keys gives it.
func filterLows(block []float32) []uint32 {
	kth := absKey(KthLargestAbs(block, max(1, len(block)/10)))
	return []uint32{0, 1, kth, 1 << 31, 1<<31 + 1, 0xc0000000, math.MaxUint32}
}

// TestWarmFilterMatchesGo holds the host's warmFilter — the AVX2 pass on a
// CPU that has it — to warmFilterGo, bit for bit: the entries read (where
// it stopped), the entries kept, and every slot of idx and val, the ones
// past the last candidate and a guard after the buffer included. The
// blocks are histBlocks' families (NaN, ±Inf, −0, subnormals and all-equal
// among them) at every length to 67 and at 2¹⁶+3, read from every offset
// within a group; the buffers hold the whole block, or run out part way.
func TestWarmFilterMatchesGo(t *testing.T) {
	if !cpuid.HasAVX2 {
		t.Log("no AVX2 on this host: warmFilter is warmFilterGo")
	}
	const guard = 8
	lengths := []int{1<<16 + 3}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	type run struct {
		idx        []int32
		val        []float32
		read, kept int
	}
	filter := func(f filterFunc, g []float32, first int32, low uint32, slots int) run {
		r := run{idx: make([]int32, slots+guard), val: make([]float32, slots+guard)}
		for i := range r.idx {
			r.idx[i], r.val[i] = -1, math.Float32frombits(0x7fc0dead)
		}
		r.read, r.kept = f(r.idx[:slots], r.val[:slots], g, first, low)
		return r
	}
	for _, fam := range histBlocks {
		for _, n := range lengths {
			rng := rand.New(rand.NewSource(int64(n)))
			buf := make([]float32, n+7)
			fam.fill(rng, buf)
			offs := []int{0, 1, 2, 3, 4, 5, 6, 7}
			if n > 67 {
				offs = offs[3:4]
			}
			for _, off := range offs {
				g := buf[off : off+n]
				first := int32(1000 + off)
				for _, low := range filterLows(g) {
					cand := countKeysFrom(g, low)
					for _, slots := range []int{n + 8, 0, 7, 8, 9, 8 + cand/2} {
						want := filter(warmFilterGo, g, first, low, slots)
						got := filter(warmFilter, g, first, low, slots)
						if got.read != want.read || got.kept != want.kept {
							t.Fatalf("%s n=%d off=%d low=%#x slots=%d: read %d kept %d, Go read %d kept %d",
								fam.name, n, off, low, slots, got.read, got.kept, want.read, want.kept)
						}
						for i := range want.idx {
							if got.idx[i] != want.idx[i] || math.Float32bits(got.val[i]) != math.Float32bits(want.val[i]) {
								t.Fatalf("%s n=%d off=%d low=%#x slots=%d: slot %d holds (%d, %#x), Go (%d, %#x)",
									fam.name, n, off, low, slots, i, got.idx[i], math.Float32bits(got.val[i]),
									want.idx[i], math.Float32bits(want.val[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestTopKDenseWarmPathsAgree runs whole warm selections on the host's
// path and on warmFilterGo: the same result bits, the same k-th key and
// the same tightening. A small k fills the candidate buffer part way
// through the block, so the Go loop's tighten runs between two calls of
// the filter.
func TestTopKDenseWarmPathsAgree(t *testing.T) {
	hits, tightened := 0, 0
	for _, fam := range histBlocks {
		for _, n := range []int{67, 1<<16 + 3} {
			rng := rand.New(rand.NewSource(int64(n)))
			const lo = 5
			vec := make([]float32, lo+n+3)
			fam.fill(rng, vec[lo:lo+n])
			for _, k := range []int{1, 2, n / 100, n / 10} {
				if k < 1 {
					continue
				}
				exact := absKey(KthLargestAbs(vec[lo:lo+n], k))
				for _, hint := range staleHints(exact) {
					for _, band := range []uint32{warmMargin, warmFloor} {
						host, goAr := NewArena(), NewArena()
						got, gotThr, gotTight := host.topKDenseWarm(vec, nil, lo, lo+n, k, hint, band)
						var want *Chunk
						var wantThr uint32
						var wantTight bool
						onFilter(warmFilterGo, func() {
							want, wantThr, wantTight = goAr.topKDenseWarm(vec, nil, lo, lo+n, k, hint, band)
						})
						if (got == nil) != (want == nil) || got != nil && !sameChunkBits(got, want) ||
							gotThr != wantThr || gotTight != wantTight {
							t.Fatalf("%s n=%d k=%d hint=%#x band=%#x: host path and Go loop differ (thr %#x / %#x, tightened %v / %v)",
								fam.name, n, k, hint, band, gotThr, wantThr, gotTight, wantTight)
						}
						if got != nil {
							hits++
						}
						if gotTight {
							tightened++
						}
					}
				}
			}
		}
	}
	if hits == 0 || tightened == 0 {
		t.Fatalf("%d warm hits, %d of them tightened: the test no longer reaches both", hits, tightened)
	}
}

// addFunc is addFilter's type.
type addFunc = func([]int32, []float32, []float32, []float32, int32, uint32) (int, int)

// onAddFilter runs f with the fused pass set to filter, so a test can hold
// the host's path to addFilterGo.
func onAddFilter(filter addFunc, f func()) {
	defer func(saved addFunc) { addFilter = saved }(addFilter)
	addFilter = filter
	f()
}

// TestAddFilterMatchesGo holds the fused pass — the host's addFilter, the
// AVX2 routine on a CPU that has it, and addFilterGo — to the two passes
// it fuses, bit for bit: the scalar add, then warmFilterGo over the sums.
// The block must hold the sums as far as the filter read and its old
// values from there on; the entries read and kept and every slot of idx
// and val, a guard after the buffer included, must agree. AddInto followed
// by warmFilterGo is held to the same. Blocks and addends are histBlocks'
// families (NaN, ±Inf, −0, subnormals and all-equal among them; a NaN
// meets a NaN in the inf-nan family) at every length to 67 and at 2¹⁶+3,
// read from every offset within a group; the lows are filterLows of the
// sums, among them 2³¹, which no key reaches and AddInto passes; the
// buffers hold the whole block, or run out part way.
func TestAddFilterMatchesGo(t *testing.T) {
	if !cpuid.HasAVX2 {
		t.Log("no AVX2 on this host: addFilter is addFilterGo")
	}
	const guard = 8
	lengths := []int{1<<16 + 3}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	type run struct {
		g          []float32
		idx        []int32
		val        []float32
		read, kept int
	}
	buffers := func(g []float32, slots int) run {
		r := run{g: append([]float32(nil), g...), idx: make([]int32, slots+guard), val: make([]float32, slots+guard)}
		for i := range r.idx {
			r.idx[i], r.val[i] = -1, math.Float32frombits(0x7fc0dead)
		}
		return r
	}
	fused := func(f addFunc, g, add []float32, first int32, low uint32, slots int) run {
		r := buffers(g, slots)
		r.read, r.kept = f(r.idx[:slots], r.val[:slots], r.g, add, first, low)
		return r
	}
	// unfused adds the whole block, filters it, and puts back the old
	// values past where the filter stopped.
	unfused := func(sum func(dst, src []float32), g, add []float32, first int32, low uint32, slots int) run {
		r := buffers(g, slots)
		sum(r.g, add)
		r.read, r.kept = warmFilterGo(r.idx[:slots], r.val[:slots], r.g, first, low)
		copy(r.g[r.read:], g[r.read:])
		return r
	}
	for _, fam := range histBlocks {
		for _, n := range lengths {
			rng := rand.New(rand.NewSource(int64(n)))
			gBuf, addBuf := make([]float32, n+7), make([]float32, n+7)
			fam.fill(rng, gBuf)
			fam.fill(rng, addBuf)
			if raceEnabled {
				// Which of two NaNs the Go loops keep is gc's choice here.
				for i, v := range gBuf {
					if v != v && addBuf[i] != addBuf[i] {
						addBuf[i] = 1
					}
				}
			}
			offs := []int{0, 1, 2, 3, 4, 5, 6, 7}
			if n > 67 {
				offs = offs[3:4]
			}
			for _, off := range offs {
				g, add := gBuf[off:off+n], addBuf[off:off+n]
				first := int32(1000 + off)
				sums := append([]float32(nil), g...)
				refAddInto(sums, add)
				for _, low := range filterLows(sums) {
					cand := countKeysFrom(sums, low)
					for _, slots := range []int{n + 8, 0, 7, 8, 9, 8 + cand/2} {
						want := unfused(refAddInto, g, add, first, low, slots)
						for _, path := range []struct {
							name string
							got  run
						}{
							{"host", fused(addFilter, g, add, first, low, slots)},
							{"go", fused(addFilterGo, g, add, first, low, slots)},
							{"AddInto", unfused(AddInto, g, add, first, low, slots)},
						} {
							got := path.got
							if got.read != want.read || got.kept != want.kept {
								t.Fatalf("%s %s n=%d off=%d low=%#x slots=%d: read %d kept %d, unfused read %d kept %d",
									path.name, fam.name, n, off, low, slots, got.read, got.kept, want.read, want.kept)
							}
							if i := firstBitDiff(got.g, want.g); i >= 0 {
								t.Fatalf("%s %s n=%d off=%d low=%#x slots=%d: block[%d] = %#x, unfused %#x (read %d)",
									path.name, fam.name, n, off, low, slots, i, math.Float32bits(got.g[i]), math.Float32bits(want.g[i]), want.read)
							}
							for i := range want.idx {
								if got.idx[i] != want.idx[i] || math.Float32bits(got.val[i]) != math.Float32bits(want.val[i]) {
									t.Fatalf("%s %s n=%d off=%d low=%#x slots=%d: slot %d holds (%d, %#x), unfused (%d, %#x)",
										path.name, fam.name, n, off, low, slots, i, got.idx[i], math.Float32bits(got.val[i]),
										want.idx[i], math.Float32bits(want.val[i]))
								}
							}
						}
					}
				}
			}
		}
	}
}

// firstBitDiff returns the first index where a and b differ in bits, or -1.
func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}
