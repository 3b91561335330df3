package nn

import (
	"math"
	"testing"
)

// TestModelStepAllocs pins the heap allocations of one warm step — clear,
// Loss, Backward — of every model in gradModelCases: a model that builds
// part of its graph off its tape (an id or label slice made per pass, a
// Zeros state) fails by name. A drop asks for its row to be lowered.
func TestModelStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: the tape keeps two generations and poisons one per pass, so the steps measured are not the ones a normal build runs")
	}
	want := map[string]uint64{
		"MLPClassifier":    0,
		"MLPRegressor":     0,
		"ResMLPClassifier": 0,
		"LSTMClassifier":   0,
		"LSTMLM":           0,
		"BERTLike":         0,
	}
	for _, tc := range gradModelCases() {
		params := tc.model.Params()
		allocs, bytes := stepAllocs(10, func() {
			ZeroGrads(params)
			loss, _ := tc.model.Loss(tc.batch)
			loss.Backward()
		})
		if allocs != want[tc.name] {
			t.Errorf("%s: %d allocs (%d bytes) per step, committed %d", tc.name, allocs, bytes, want[tc.name])
		}
	}
}

// TestTapeRewindPoisons: in a -race build, everything a model's Loss
// returned reads NaN once the model's next Loss has run — the loss value,
// its means and the interior outputs — so code that keeps a tensor past
// its pass poisons what it computes instead of reading another pass's
// numbers.
func TestTapeRewindPoisons(t *testing.T) {
	if !raceEnabled {
		t.Skip("a rewind poisons only in -race builds")
	}
	for _, tc := range gradModelCases() {
		loss, _ := tc.model.Loss(tc.batch)
		nodes := append([]*Tensor(nil), topoSort(loss)...)
		loss.Backward()
		next, _ := tc.model.Loss(tc.batch)
		if next == loss {
			t.Fatalf("%s: the next pass handed out the kept loss node again", tc.name)
		}
		if v := loss.Data[0]; !math.IsNaN(float64(v)) {
			t.Errorf("%s: kept loss reads %v after the next Loss", tc.name, v)
		}
		if ms := loss.Means(); len(ms) == 0 || !math.IsNaN(ms[0].Sum) {
			t.Errorf("%s: kept loss's means read %v after the next Loss", tc.name, ms)
		}
		for _, n := range nodes {
			if n.tape == nil || n.op == nil {
				continue // a parameter or an input; a lent output has no Data
			}
			for i, v := range n.Data {
				if !math.IsNaN(float64(v)) {
					t.Fatalf("%s: a kept %dx%d node reads %v at %d after the next Loss", tc.name, n.R, n.C, v, i)
				}
			}
		}
	}
}
