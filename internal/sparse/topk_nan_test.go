package sparse

import (
	"math"
	"slices"
	"testing"
)

// nan32 returns the canonical float32 quiet NaN.
func nan32() float32 { return float32(math.NaN()) }

// TestTopKChunkNaNInfTotalOrder is the regression test for the
// determinism-breaking NaN/Inf hole: IEEE comparisons are not total, so the
// old float-compare quickselect returned a garbage (often NaN) threshold on
// poisoned input and the subsequent >/== selection passes kept fewer than k
// entries — zero, when the threshold itself was NaN. Under the
// math.Float32bits key order the selection must keep exactly k entries,
// rank NaN above ±Inf above every finite value, and still break ties to the
// lower index.
func TestTopKChunkNaNInfTotalOrder(t *testing.T) {
	c := FromDense([]float32{1, nan32(), 2, float32(math.Inf(1)), float32(math.Inf(-1)), 3, nan32()}, 0, 7)
	if c.Len() != 7 {
		t.Fatalf("poisoned values must count as non-zeros, got %d entries", c.Len())
	}

	kept, dropped := TopKChunk(c, 3)
	if kept.Len() != 3 || dropped.Len() != 4 {
		t.Fatalf("kept %d / dropped %d entries, want exactly 3 / 4", kept.Len(), dropped.Len())
	}
	// Rank order: the two NaNs (indices 1, 6) outrank both infinities; the
	// +Inf/-Inf tie on |value| breaks to the lower index (3, not 4).
	wantIdx := []int32{1, 3, 6}
	for i, idx := range kept.Idx {
		if idx != wantIdx[i] {
			t.Fatalf("kept indices %v, want %v", kept.Idx, wantIdx)
		}
	}
	for i, idx := range kept.Idx {
		if idx == 3 {
			if !math.IsInf(float64(kept.Val[i]), 1) {
				t.Fatalf("index 3 should carry +Inf, got %v", kept.Val[i])
			}
		} else if !math.IsNaN(float64(kept.Val[i])) {
			t.Fatalf("index %d should carry NaN, got %v", idx, kept.Val[i])
		}
	}
}

// TestTopKDenseNaNInfTotalOrder holds every selection over a dense block to
// the key order — top-k, and Ok-Topk's threshold pruning from the vector
// and from a chunk: NaN ranks above ±Inf above every finite value. A raw
// float compare keeps ±Inf but drops the NaN (every ordered comparison
// against NaN is false).
func TestTopKDenseNaNInfTotalOrder(t *testing.T) {
	dense := []float32{0.5, 0, nan32(), -2, float32(math.Inf(-1)), 0, 4, -0.25}
	wantIdx := []int32{2, 4, 6}
	thresholdChunk, _ := ThresholdChunk(FromDense(dense, 0, len(dense)), 4)
	for _, sel := range []struct {
		name string
		out  *Chunk
	}{
		{"TopKDense", TopKDense(dense, 0, len(dense), 3)},
		{"ThresholdDense", ThresholdDense(dense, 0, len(dense), 4)},
		{"ThresholdChunk", thresholdChunk},
	} {
		if !slices.Equal(sel.out.Idx, wantIdx) {
			t.Errorf("%s selected indices %v, want %v", sel.name, sel.out.Idx, wantIdx)
			continue
		}
		for i, idx := range sel.out.Idx {
			if math.Float32bits(sel.out.Val[i]) != math.Float32bits(dense[idx]) {
				t.Errorf("%s index %d carries %v, want %v", sel.name, idx, sel.out.Val[i], dense[idx])
			}
		}
	}
}

// TestKthLargestKeyMatchesFloatOrder pins that the key order is exactly the
// |v| order on finite inputs: the bits trick must change nothing on clean
// gradients.
func TestKthLargestKeyMatchesFloatOrder(t *testing.T) {
	vals := []float32{0.25, -3, 1.5, -0.5, 2, -2, 0.125}
	for k := 1; k <= len(vals); k++ {
		got := math.Float32frombits(kthLargestAbsKey(vals, k))
		// Reference: sort magnitudes descending.
		mags := make([]float64, len(vals))
		for i, v := range vals {
			mags[i] = math.Abs(float64(v))
		}
		for i := range mags {
			for j := i + 1; j < len(mags); j++ {
				if mags[j] > mags[i] {
					mags[i], mags[j] = mags[j], mags[i]
				}
			}
		}
		if float64(got) != mags[k-1] {
			t.Fatalf("k=%d: key-order threshold %v, want %v", k, got, mags[k-1])
		}
	}
}

// TestKthLargestAbsPoisonedDeterministic pins the exported threshold helper
// on poisoned input: a deterministic value (NaN, the top rank) rather than
// an input-order-dependent one.
func TestKthLargestAbsPoisonedDeterministic(t *testing.T) {
	a := []float32{1, nan32(), 2, 3}
	b := []float32{3, 2, nan32(), 1}
	ta, tb := KthLargestAbs(a, 1), KthLargestAbs(b, 1)
	if math.Float32bits(ta) != math.Float32bits(tb) {
		t.Fatalf("threshold depends on input order: %x vs %x", math.Float32bits(ta), math.Float32bits(tb))
	}
	if !math.IsNaN(float64(ta)) {
		t.Fatalf("rank-1 magnitude of a NaN-poisoned vector should be the NaN, got %v", ta)
	}
	if got := KthLargestAbs(a, 2); got != 3 {
		t.Fatalf("rank-2 magnitude should be 3, got %v", got)
	}
}
