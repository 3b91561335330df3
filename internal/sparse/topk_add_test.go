package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spardl/internal/cpuid"
)

// TestTopKDenseAddMatchesAddThenSelect runs a worker's residual — it takes
// a gradient, gives up the top k of each block, keeps the rest — once with
// the gradient added inside the selection (TopKDenseAdd) and once by
// AddInto before TopKDense, on two arenas, on the host's fused pass and on
// addFilterGo. After every selection the two must hold the same chunk, the
// same vector bits, the same remembered keys and the same SelectStats. The
// gradient's scale swings so that selections are cold, warm hits,
// tightened and fallbacks; blocks are long (the histogram's cold select)
// and short (quickselect), and the gradient carries ±Inf and NaNs in one
// of them. A last run adds to the vector a multiple of itself and clears
// nothing, so that its keys move by the scale alone: the walk of
// TestLearnedBand, which ends in a widened selection.
func TestTopKDenseAddMatchesAddThenSelect(t *testing.T) {
	paths := []struct {
		name   string
		filter addFunc
	}{{"go", addFilterGo}}
	if cpuid.HasAVX2 {
		paths = append(paths, struct {
			name   string
			filter addFunc
		}{"host", addFilter})
	}
	// 0.01 lets the keys fall out of reach (fallback), 30 raises them
	// past the candidate buffer (tightened).
	swings := []float32{1, 1, 1, 1, 0.01, 1, 30, 1, 1, 0.5, 2, 1}
	// A key that stands still narrows the band, a fall of 1.5 % lands
	// outside it and inside warmMargin; the walk is TestLearnedBand's.
	learned := []float32{1, 1, 1, 1, 0.5, 0.985, 0.985}
	for range 40 {
		learned = append(learned, 1)
	}
	learned = append(learned, 0.985)
	var total SelectStats
	for _, path := range paths {
		for _, c := range []struct {
			name    string
			n, m, k int
			fam     int // index into histBlocks
			scales  []float32
			rescale bool // after the first step, add (scale−1)·vector and clear nothing
		}{
			{"long", 14*4099 + 5, 14, 41, 0, swings, false},
			{"short", 4*301 + 3, 4, 9, 0, swings, false},
			{"short-ties", 4*301 + 3, 4, 9, 2, swings, false},
			{"inf-nan", 4 * 4099, 4, 41, len(histBlocks) - 1, swings, false},
			{"learned-band", 4099, 1, 41, 0, learned, true},
		} {
			rng := rand.New(rand.NewSource(int64(c.n)))
			grad := make([]float32, c.n)
			histBlocks[c.fam].fill(rng, grad)
			part := NewPartition(c.n, c.m)
			fusedAr, refAr := NewArena(), NewArena()
			fusedRes, refRes := make([]float32, c.n), make([]float32, c.n)
			step := make([]float32, c.n)
			onAddFilter(path.filter, func() {
				for s, scale := range c.scales {
					fusedAr.Reset()
					refAr.Reset()
					for i, g := range grad {
						step[i] = g * scale
						if c.rescale && s > 0 {
							step[i] = refRes[i] * (scale - 1)
						}
					}
					for b := 0; b < c.m; b++ {
						lo, hi := part.Bounds(b)
						got := fusedAr.TopKDenseAdd(fusedRes, step, lo, hi, c.k)
						AddInto(refRes[lo:hi], step[lo:hi])
						want := refAr.TopKDense(refRes, lo, hi, c.k)
						where := fmt.Sprintf("%s %s step %d block %d", path.name, c.name, s, b)
						if !sameChunkBits(got, want) {
							t.Fatalf("%s: fused selection differs", where)
						}
						if i := firstBitDiff(fusedRes, refRes); i >= 0 {
							t.Fatalf("%s: vector[%d] = %#x, added first %#x", where, i,
								math.Float32bits(fusedRes[i]), math.Float32bits(refRes[i]))
						}
						if !slices.Equal(fusedAr.hints, refAr.hints) || fusedAr.sel != refAr.sel {
							t.Fatalf("%s: remembered keys or stats differ: %+v, added first %+v", where, fusedAr.sel, refAr.sel)
						}
						if !c.rescale {
							got.ClearInDense(fusedRes)
							want.ClearInDense(refRes)
						}
					}
				}
			})
			total.Add(fusedAr.SelectStats())
		}
	}
	t.Logf("%+v", total)
	if total.Cold == 0 || total.WarmHit == 0 || total.Tightened == 0 || total.Widened == 0 || total.Fallback == 0 {
		t.Fatalf("%+v: the run no longer reaches every kind of selection", total)
	}

	// Without an arena, and with nothing to select, the sums are still left.
	dense, add := gaussBlock(100, 5), gaussBlock(100, 6)
	want := append([]float32(nil), dense...)
	AddInto(want[10:90], add[10:90])
	for _, k := range []int{0, 7} {
		got := append([]float32(nil), dense...)
		sel := (*Arena)(nil).TopKDenseAdd(got, add, 10, 90, k)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("nil arena, k=%d: vector[%d] not summed", k, i)
		}
		if wantSel := TopKDense(want, 10, 90, k); !sameChunkBits(sel, wantSel) {
			t.Fatalf("nil arena, k=%d: selection differs", k)
		}
	}
}
