package sparse

import (
	"math"
	"testing"
)

// scaleKey returns the key of f times the magnitude key stands for.
func scaleKey(key uint32, f float64) uint32 {
	return absKey(float32(float64(math.Float32frombits(key)) * f))
}

// BenchmarkTopKDenseWarm is the measurement behind warmMargin, warmFloor
// and warmScratch: one worker's selections in sync-sim-1m (n = 2²⁰ in 14
// blocks, 748 of each) by the histogram select (cold) and by the warm filter
// given keys that are right, stale in either direction, or — fell-5pct — out
// of reach, which costs the wasted pass on top of the histogram select. cliff
// is a residual whose kept entries were zeroed for 20 synchronizations, as
// under LRES: everything sits at or below the last threshold, about 5k
// entries within a bucket of the next one. stationary is a residual that took
// the same gradient and gave up its top k for 150 synchronizations, as under
// error feedback on a repeated gradient: it has piled up just under keys that
// no longer move, and is selected from with the band the arena learned on the
// way and, stationary/fixed, with all of warmMargin. cand/k is how many
// entries passed the filter at its initial setting. exact/add-then-select
// and exact/fused add a gradient to every block first — a zero one, so that
// the keys stay right — by AddInto before the filter, and in the filter's
// own pass (addFilter): the read of the vector the fused pass saves.
func BenchmarkTopKDenseWarm(b *testing.B) {
	const n, m, k, statSyncs = 1 << 20, 14, 748, 150
	part := NewPartition(n, m)
	ar := NewArena()
	kthKeys := func(dense []float32) []uint32 {
		keys := make([]uint32, m)
		for blk := range keys {
			lo, hi := part.Bounds(blk)
			_, keys[blk] = ar.topKDenseHist(dense, lo, hi, k)
		}
		return keys
	}
	gauss := gaussBlock(n, 1)
	gaussKeys := kthKeys(gauss)
	equal := make([]float32, n)
	for i := range equal {
		equal[i] = 0.5 - float32(i%2)
	}
	cliff, cliffKeys := make([]float32, n), []uint32(nil)
	for step := 0; step <= 20; step++ {
		for i, g := range gauss {
			cliff[i] += g
		}
		if step == 20 {
			break
		}
		cliffKeys = kthKeys(cliff)
		for blk := 0; blk < m; blk++ {
			lo, hi := part.Bounds(blk)
			sel, _ := ar.topKDenseHist(cliff, lo, hi, k)
			sel.ClearInDense(cliff)
		}
		ar.Reset()
	}
	stat, statKeys, statBands := make([]float32, n), make([]uint32, m), make([]uint32, m)
	for step := 0; step <= statSyncs; step++ {
		for i, g := range gauss {
			stat[i] += g
		}
		for blk := 0; blk < m; blk++ {
			lo, hi := part.Bounds(blk)
			if step < statSyncs {
				ar.TopKDense(stat, lo, hi, k).ClearInDense(stat)
			} else {
				h := ar.hint(lo, hi, k)
				statKeys[blk], statBands[blk] = h.key, h.band()
			}
		}
		ar.Reset()
	}
	for _, c := range []struct {
		name  string
		dense []float32
		keys  []uint32 // remembered per block; nil is the histogram select
		scale float64  // applied to the remembered keys
		bands []uint32 // per block; nil is warmMargin
		add   string   // how a zero gradient is added: "", "then-select" or "fused"
	}{
		{"cold", gauss, nil, 0, nil, ""},
		{"exact", gauss, gaussKeys, 1, nil, ""},
		{"exact/add-then-select", gauss, gaussKeys, 1, nil, "then-select"},
		{"exact/fused", gauss, gaussKeys, 1, nil, "fused"},
		{"rose-5pct", gauss, gaussKeys, 1 / 1.05, nil, ""},
		{"rose-2x", gauss, gaussKeys, 0.5, nil, ""}, // the second sync: the residual doubled
		{"fell-3pct", gauss, gaussKeys, 1 / 0.97, nil, ""},
		{"fell-5pct", gauss, gaussKeys, 1 / 0.95, nil, ""},
		{"all-equal", equal, kthKeys(equal), 1, nil, ""},
		{"cliff/cold", cliff, nil, 0, nil, ""},
		{"cliff", cliff, cliffKeys, 1, nil, ""},
		{"stationary/cold", stat, nil, 0, nil, ""},
		{"stationary/fixed", stat, statKeys, 1, nil, ""},
		{"stationary", stat, statKeys, 1, statBands, ""},
	} {
		zeros := make([]float32, n)
		b.Run(c.name, func(b *testing.B) {
			hits, cand := 0, 0
			for i := 0; i < b.N; i++ {
				ar.Reset()
				for blk := 0; blk < m; blk++ {
					lo, hi := part.Bounds(blk)
					if c.keys != nil {
						hint, band := scaleKey(c.keys[blk], c.scale), uint32(warmMargin)
						if c.bands != nil {
							band = c.bands[blk]
						}
						if i == 0 {
							cand += countKeysFrom(c.dense[lo:hi], warmLow(hint, band))
						}
						var add []float32
						switch c.add {
						case "then-select":
							AddInto(c.dense[lo:hi], zeros[lo:hi])
						case "fused":
							add = zeros
						}
						if out, _, _ := ar.topKDenseWarm(c.dense, add, lo, hi, k, hint, band); out != nil {
							hits++
							continue
						}
					}
					ar.topKDenseHist(c.dense, lo, hi, k)
				}
			}
			if c.keys != nil {
				b.ReportMetric(float64(hits)/float64(b.N*m), "hit")
				b.ReportMetric(float64(cand)/float64(m*k), "cand/k")
			}
		})
	}
}

// BenchmarkTopKDenseShort is the measurement behind trying the remembered
// key under histSelectMin too: one worker's selections in sync-tcp-small
// (n = 4096 in 4 blocks, 102 of each) by the cold select for that length,
// quickselect over the whole block, and by TopKDense with the keys of the
// last selection remembered.
func BenchmarkTopKDenseShort(b *testing.B) {
	const n, m, k = 4096, 4, 102
	part := NewPartition(n, m)
	dense := gaussBlock(n, 1)
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			ar := NewArena()
			for i := 0; i < b.N; i++ {
				ar.Reset()
				for blk := 0; blk < m; blk++ {
					lo, hi := part.Bounds(blk)
					if warm {
						ar.TopKDense(dense, lo, hi, k)
					} else {
						ar.topKDenseSelect(dense, lo, hi, k)
					}
				}
			}
			if st := ar.SelectStats(); warm && b.N > 1 && st.WarmHit != uint64((b.N-1)*m) {
				b.Fatalf("%d rounds of %d selections went %+v, want all but the first round warm hits", b.N, m, st)
			}
		})
	}
}

// TestTopKDenseWarmResidualDynamics runs the sequence the warm start is
// built for — a worker's residual takes a gradient, gives up the top k of
// each of its blocks, and keeps the rest — beside the fixed-band oracle:
// every selection must equal quickselect's and be cold, a warm hit or a
// fallback exactly when it was before the band was learned. With a steady
// gradient nearly every selection after the first few must be a warm hit;
// with one whose scale swings by 100× the remembered keys are often useless
// and the results must not care. P = 14 blocks is the shape whose table
// entries must not evict each other: with the steady gradient every block
// has to hit on its second selection.
func TestTopKDenseWarmResidualDynamics(t *testing.T) {
	const m, k, steps, warmup = 14, 41, 60, 10
	n := m*4099 + 5
	grad := gaussBlock(n, 3)
	part := NewPartition(n, m)
	for _, c := range []struct {
		name    string
		scale   func(step int) float32
		minHits float64 // share of the selections after warmup
		falls   bool    // whether some thresholds must fall out of the filter's reach
	}{
		{"steady", func(int) float32 { return 1 }, 0.9, false},
		{"alternating", func(step int) float32 {
			if step%2 == 0 {
				return 10
			}
			return 0.1
		}, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ar := NewArena()
			oracle := newBandOracle(ar)
			res := make([]float32, n)
			var atWarmup SelectStats
			for step := 0; step < steps; step++ {
				ar.Reset()
				for i, g := range grad {
					res[i] += g * c.scale(step)
				}
				for b := 0; b < m; b++ {
					lo, hi := part.Bounds(b)
					oracle.selectFrom(t, ar, res, lo, hi, k).ClearInDense(res)
				}
				switch st := ar.SelectStats(); {
				case step == 1 && !c.falls && (st.Cold != m || st.WarmHit != m):
					t.Fatalf("after two selections of each block: %+v, want %d cold then %d warm hits", st, m, m)
				case step == warmup-1:
					atWarmup = st
				}
			}
			st := ar.SelectStats()
			if total := st.Cold + st.WarmHit + st.Fallback; total != m*steps || st.Tightened+st.Widened > st.WarmHit {
				t.Fatalf("%+v does not add up to %d selections", st, m*steps)
			}
			hits := float64(st.WarmHit-atWarmup.WarmHit) / float64(m*(steps-warmup))
			t.Logf("%+v, warm hits after step %d: %.3f", st, warmup, hits)
			if hits < c.minHits {
				t.Errorf("warm hits on %.3f of steady-state selections, want at least %.2f", hits, c.minHits)
			}
			if c.falls && st.Fallback == 0 {
				t.Errorf("no selection fell back: the sequence does not exercise a falling threshold")
			}
		})
	}
}

// TestLearnedBand walks one block through what the learned band reacts to,
// beside the fixed-band oracle: a key that stands still narrows the band to
// warmFloor; a cold select forgets that, so the selection after it looks in
// all of warmMargin; a fall the band has seen once is inside it the next
// time; and a fall it has forgotten again costs a second pass, never the
// warm hit.
func TestLearnedBand(t *testing.T) {
	const n, k = 4099, 41
	block := gaussBlock(n, 21)
	ar := NewArena()
	oracle := newBandOracle(ar)
	step := func(what string, scale float32, repeat int, want SelectStats) {
		t.Helper()
		for i := range block {
			block[i] *= scale
		}
		for ; repeat > 0; repeat-- {
			oracle.selectFrom(t, ar, block, 0, n, k)
		}
		if st := ar.SelectStats(); st != want {
			t.Fatalf("%s: selections went %+v, want %+v", what, st, want)
		}
	}
	// A fall of 1.5 % is 0.24–0.48 of warmMargin wherever in its binade the
	// key sits: outside warmFloor, inside warmMargin.
	step("cold, then a key that stands still", 1, 4, SelectStats{Cold: 1, WarmHit: 3})
	if band := ar.hint(0, n, k).band(); band != warmFloor {
		t.Fatalf("a key that did not move leaves band %#x, want warmFloor", band)
	}
	step("halved: out of reach", 0.5, 1, SelectStats{Cold: 1, WarmHit: 3, Fallback: 1})
	step("first fall after the cold select", 0.985, 1, SelectStats{Cold: 1, WarmHit: 4, Fallback: 1})
	step("the same fall again, now expected", 0.985, 1, SelectStats{Cold: 1, WarmHit: 5, Fallback: 1})
	step("standing still until the fall is forgotten", 1, 40, SelectStats{Cold: 1, WarmHit: 45, Fallback: 1})
	step("the same fall, unexpected", 0.985, 1, SelectStats{Cold: 1, WarmHit: 46, Widened: 1, Fallback: 1})
}

// TestSelectHintTable pins the table's contract: exact match on all of
// (lo, hi, k), entries survive Reset, and past maxSelHints shapes it
// replaces rather than grows.
func TestSelectHintTable(t *testing.T) {
	ar := NewArena()
	ar.hint(0, 10, 3).key = 7
	ar.hint(10, 20, 3).key = 8
	ar.Reset()
	if ar.hint(0, 10, 3).key != 7 || ar.hint(10, 20, 3).key != 8 {
		t.Fatal("remembered keys lost over Reset or to each other")
	}
	for _, h := range []*selHint{ar.hint(0, 10, 4), ar.hint(0, 11, 3), ar.hint(1, 10, 3)} {
		if h.key != 0 {
			t.Fatalf("near-miss shape %+v matched a remembered key", *h)
		}
	}
	for i := 0; i < 2*maxSelHints; i++ {
		ar.hint(i, i+1, 1).key = 1
	}
	if len(ar.hints) != maxSelHints {
		t.Fatalf("table holds %d entries, bound is %d", len(ar.hints), maxSelHints)
	}
	if ar.hint(2*maxSelHints-1, 2*maxSelHints, 1).key != 1 {
		t.Fatal("the most recent shape was not kept")
	}
	if (*Arena)(nil).SelectStats() != (SelectStats{}) {
		t.Fatal("nil arena reports selections")
	}
}

// TestShortBlockHints pins what the remembered key of a block under
// histSelectMin is: the k-th key when the selection had one — so the next
// selection is a warm hit — and nothing when fewer than k entries were kept,
// so that a block with few non-zeros is not filtered, uselessly, every time.
func TestShortBlockHints(t *testing.T) {
	const n, k = 1024, 102
	dense := gaussBlock(n, 9)
	ar := NewArena()
	first := ar.TopKDense(dense, 0, n, k)
	if key := ar.hint(0, n, k).key; key != minKey(first) {
		t.Fatalf("cold select of a short block remembered %#x, its k-th key is %#x", key, minKey(first))
	}
	ar.TopKDense(dense, 0, n, k)
	if st := ar.SelectStats(); st != (SelectStats{Cold: 1, WarmHit: 1}) {
		t.Fatalf("two selections of a short block: %+v, want one cold then one warm hit", st)
	}
	sparse := make([]float32, n)
	copy(sparse, dense[:k/2])
	ar = NewArena()
	for i := 0; i < 3; i++ {
		if got := ar.TopKDense(sparse, 0, n, k); got.Len() != k/2 {
			t.Fatalf("kept %d of %d non-zeros", got.Len(), k/2)
		}
		if key := ar.hint(0, n, k).key; key != 0 {
			t.Fatalf("a selection that kept fewer than k entries remembered key %#x", key)
		}
	}
	if st := ar.SelectStats(); st != (SelectStats{Cold: 3}) {
		t.Fatalf("three selections with fewer than k non-zeros: %+v, want three cold", st)
	}
}
