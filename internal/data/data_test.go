package data

import (
	"reflect"
	"slices"
	"testing"

	"spardl/internal/nn"
)

func TestDeterminism(t *testing.T) {
	sets := func() []Dataset {
		return []Dataset{
			NewGaussianClasses("c10", 10, 16, 0.5, 1),
			NewHouseRegression(16, 2),
			NewSentimentSeq(50, 12, 3),
			NewMarkovLM(40, 10, 4),
			NewMaskedLM(40, 10, 5),
		}
	}
	ones, twos := sets(), sets()
	for i, ds := range ones {
		// A TrainBatch is valid until the dataset's next one, so each
		// comparison keeps a deep copy of the first.
		a := clone(ds.TrainBatch(2, 7, 8))
		if !reflect.DeepEqual(a, twos[i].TrainBatch(2, 7, 8)) {
			t.Fatalf("%s: TrainBatch not deterministic", ds.Name())
		}
		if reflect.DeepEqual(a, ds.TrainBatch(1, 7, 8)) {
			t.Fatalf("%s: different workers received identical batches", ds.Name())
		}
		if reflect.DeepEqual(a, ds.TrainBatch(2, 8, 8)) {
			t.Fatalf("%s: different steps received identical batches", ds.Name())
		}
		// Reused storage, shrunk and regrown, leaves nothing behind.
		ds.TrainBatch(1, 3, 16)
		ds.TrainBatch(0, 4, 3)
		if !reflect.DeepEqual(a, ds.TrainBatch(2, 7, 8)) {
			t.Fatalf("%s: a reused TrainBatch differs from a fresh one", ds.Name())
		}
		if e := ds.EvalBatch(8); !reflect.DeepEqual(e, twos[i].EvalBatch(8)) || e == ds.EvalBatch(8) {
			t.Fatalf("%s: EvalBatch not deterministic or not its own", ds.Name())
		}
	}
}

// clone deep-copies a batch's slices.
func clone(b *nn.Batch) *nn.Batch {
	rows := func(s [][]int) [][]int {
		if s == nil {
			return nil
		}
		out := make([][]int, len(s))
		for i := range s {
			out[i] = slices.Clone(s[i])
		}
		return out
	}
	return &nn.Batch{X: slices.Clone(b.X), Features: b.Features, Tokens: rows(b.Tokens), Labels: slices.Clone(b.Labels),
		Targets: slices.Clone(b.Targets), NextTokens: rows(b.NextTokens), MaskLabels: rows(b.MaskLabels)}
}

func TestGaussianClassesShapesAndBalance(t *testing.T) {
	ds := NewGaussianClasses("c10", 10, 16, 0.5, 1)
	b := ds.TrainBatch(0, 0, 400)
	if len(b.X) != 400*16 || b.Features != 16 || len(b.Labels) != 400 {
		t.Fatal("bad shapes")
	}
	counts := map[int]int{}
	for _, l := range b.Labels {
		if l < 0 || l >= 10 {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	if len(counts) < 8 {
		t.Fatalf("labels badly unbalanced: %v", counts)
	}
}

func TestHouseRegressionTargetsVary(t *testing.T) {
	ds := NewHouseRegression(16, 2)
	b := ds.TrainBatch(0, 0, 64)
	seen := map[float32]bool{}
	for _, y := range b.Targets {
		seen[y] = true
	}
	if len(seen) < 32 {
		t.Fatal("targets nearly constant")
	}
}

func TestSentimentLabelsMatchLexicon(t *testing.T) {
	ds := NewSentimentSeq(50, 12, 3)
	b := ds.TrainBatch(0, 0, 200)
	agree := 0
	for i, seq := range b.Tokens {
		score := 0
		for _, tok := range seq {
			if ds.posSet[tok] {
				score++
			}
			if ds.negSet[tok] {
				score--
			}
		}
		want := 0
		if score > 0 {
			want = 1
		}
		if score != 0 && b.Labels[i] == want {
			agree++
		}
		if score == 0 {
			agree++ // tie-broken examples carry small label noise by design
		}
	}
	if agree < 190 {
		t.Fatalf("labels disagree with lexicon rule: %d/200", agree)
	}
}

func TestMarkovLMNextTokensShifted(t *testing.T) {
	ds := NewMarkovLM(40, 10, 4)
	b := ds.TrainBatch(0, 0, 16)
	for i := range b.Tokens {
		for j := 0; j+1 < len(b.Tokens[i]); j++ {
			if b.NextTokens[i][j] != b.Tokens[i][j+1] {
				t.Fatal("NextTokens is not the shifted sequence")
			}
		}
	}
}

func TestMarkovLMIsPeaked(t *testing.T) {
	// The whole point of the chain: transitions are predictable, so a
	// bigram-aware model beats unigram. Verify rows concentrate mass.
	ds := NewMarkovLM(40, 10, 4)
	heavy := 0
	for s := 0; s < 40; s++ {
		prev := float32(0)
		var maxp float32
		for j := 0; j < 40; j++ {
			p := ds.cum[s*40+j] - prev
			prev = ds.cum[s*40+j]
			if p > maxp {
				maxp = p
			}
		}
		if maxp > 2.0/40 { // at least 2× the uniform probability
			heavy++
		}
	}
	if heavy < 35 {
		t.Fatalf("only %d/40 rows are peaked", heavy)
	}
}

func TestMaskedLMMasking(t *testing.T) {
	ds := NewMaskedLM(41, 20, 5)
	b := ds.TrainBatch(0, 0, 64)
	masked, total := 0, 0
	for i := range b.Tokens {
		for j := range b.Tokens[i] {
			total++
			lab := b.MaskLabels[i][j]
			if lab >= 0 {
				masked++
				if b.Tokens[i][j] != ds.MaskID {
					t.Fatal("labelled position is not masked")
				}
				if lab == ds.MaskID {
					t.Fatal("label equals the mask id")
				}
			} else if b.Tokens[i][j] == ds.MaskID {
				t.Fatal("masked position carries no label")
			}
		}
	}
	frac := float64(masked) / float64(total)
	if frac < 0.08 || frac > 0.25 {
		t.Fatalf("mask fraction %.2f outside expectation", frac)
	}
}
