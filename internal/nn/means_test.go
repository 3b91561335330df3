package nn

import (
	"math"
	"slices"
	"testing"
)

// TestMeansRebuildTheLoss: every model's loss node carries the means
// behind its value — one for CrossEntropy and MSE, one per step for
// LSTMLM. MeanLoss gives the value back bit for bit, and the means of two
// row ranges of a batch add up to the whole batch's: counts exactly, sums
// up to float64 reassociation. A loss node is valid until the model's
// next Loss, so its means are copied before the next one.
func TestMeansRebuildTheLoss(t *testing.T) {
	for _, tc := range gradModelCases() {
		whole, _ := tc.model.Loss(tc.batch)
		ms := slices.Clone(whole.Means())
		want := 1
		if tc.name == "LSTMLM" {
			want = len(tc.batch.Tokens[0]) // one per step
		}
		if len(ms) != want {
			t.Fatalf("%s: %d means, want %d", tc.name, len(ms), want)
		}
		if got := MeanLoss(ms); math.Float32bits(got) != math.Float32bits(whole.Data[0]) {
			t.Fatalf("%s: MeanLoss %v, loss node %v", tc.name, got, whole.Data[0])
		}
		a, _ := tc.model.Loss(tc.batch.Rows(0, 1))
		am := slices.Clone(a.Means())
		b, _ := tc.model.Loss(tc.batch.Rows(1, tc.batch.Size()))
		bm := b.Means()
		for i, m := range ms {
			sum, count := am[i].Sum+bm[i].Sum, am[i].Count+bm[i].Count
			if count != m.Count || math.Abs(sum-m.Sum) > 1e-12*math.Abs(m.Sum) {
				t.Fatalf("%s mean %d: rows [0,1) + [1,%d) = %v / %d, whole batch %v / %d",
					tc.name, i, tc.batch.Size(), sum, count, m.Sum, m.Count)
			}
		}
	}
	if ms := Zeros(1, 1).Means(); ms != nil {
		t.Fatalf("a tensor that is no loss has means %v", ms)
	}
}
