// Package data provides deterministic synthetic datasets standing in for
// the seven real datasets of the paper's evaluation (Table II): CIFAR-10,
// CIFAR-100, ImageNet, House, IMDB, PTB and Wikipedia. Each generator is
// seeded and pure: batch(worker, step) always yields the same examples, so
// every experiment is exactly reproducible and every worker holds a
// disjoint shard (data-parallel S-SGD).
//
// The substitution rationale: the experiments compare
// communication methods on a fixed learning task, so what matters is that
// the task is learnable but non-trivial, produces heavy-tailed gradient
// distributions, and is identical across methods — not that it is the
// original corpus.
package data

import (
	"math"
	"math/rand"

	"spardl/internal/nn"
)

// Dataset produces deterministic mini-batches.
type Dataset interface {
	Name() string
	// TrainBatch returns the step-th training batch of the given worker's
	// shard. Different workers see disjoint example streams.
	TrainBatch(worker, step, batchSize int) *nn.Batch
	// EvalBatch returns a held-out batch for metric reporting.
	EvalBatch(batchSize int) *nn.Batch
}

// rngFor derives a deterministic stream for (seed, worker, step); workers
// use disjoint streams and eval uses worker = -1.
func rngFor(seed int64, worker, step int) *rand.Rand {
	h := seed
	h = h*1000003 + int64(worker+7)
	h = h*1000003 + int64(step+13)
	return rand.New(rand.NewSource(h))
}

// GaussianClasses is the image-classification stand-in (CIFAR-10/100,
// ImageNet): class prototypes in feature space plus Gaussian noise. Noise
// is chosen so the Bayes accuracy is high but reaching it requires learning
// all prototypes.
type GaussianClasses struct {
	name     string
	classes  int
	features int
	noise    float32
	protos   []float32 // classes×features
	seed     int64
}

// NewGaussianClasses builds the dataset.
func NewGaussianClasses(name string, classes, features int, noise float32, seed int64) *GaussianClasses {
	rng := rand.New(rand.NewSource(seed))
	protos := make([]float32, classes*features)
	for i := range protos {
		protos[i] = float32(rng.NormFloat64())
	}
	return &GaussianClasses{name: name, classes: classes, features: features, noise: noise, protos: protos, seed: seed}
}

// Name implements Dataset.
func (g *GaussianClasses) Name() string { return g.name }

func (g *GaussianClasses) batch(rng *rand.Rand, batchSize int) *nn.Batch {
	x := make([]float32, batchSize*g.features)
	labels := make([]int, batchSize)
	for b := 0; b < batchSize; b++ {
		c := rng.Intn(g.classes)
		labels[b] = c
		for j := 0; j < g.features; j++ {
			x[b*g.features+j] = g.protos[c*g.features+j] + g.noise*float32(rng.NormFloat64())
		}
	}
	return &nn.Batch{X: x, Features: g.features, Labels: labels}
}

// TrainBatch implements Dataset.
func (g *GaussianClasses) TrainBatch(worker, step, batchSize int) *nn.Batch {
	return g.batch(rngFor(g.seed, worker, step), batchSize)
}

// EvalBatch implements Dataset.
func (g *GaussianClasses) EvalBatch(batchSize int) *nn.Batch {
	return g.batch(rngFor(g.seed, -1, 0), batchSize)
}

// HouseRegression is the image-regression stand-in (Case 4): targets are a
// fixed nonlinear function of the features plus observation noise.
type HouseRegression struct {
	features int
	w        []float32
	seed     int64
}

// NewHouseRegression builds the dataset.
func NewHouseRegression(features int, seed int64) *HouseRegression {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float32, features)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	return &HouseRegression{features: features, w: w, seed: seed}
}

// Name implements Dataset.
func (h *HouseRegression) Name() string { return "House" }

func (h *HouseRegression) batch(rng *rand.Rand, batchSize int) *nn.Batch {
	x := make([]float32, batchSize*h.features)
	y := make([]float32, batchSize)
	for b := 0; b < batchSize; b++ {
		var lin float32
		for j := 0; j < h.features; j++ {
			v := float32(rng.NormFloat64())
			x[b*h.features+j] = v
			lin += h.w[j] * v
		}
		// Nonlinear target: saturating linear part plus a pairwise
		// interaction, with mild observation noise.
		inter := x[b*h.features] * x[b*h.features+1]
		y[b] = float32(math.Tanh(float64(lin*0.3))) + 0.5*inter + 0.1*float32(rng.NormFloat64())
	}
	return &nn.Batch{X: x, Features: h.features, Targets: y}
}

// TrainBatch implements Dataset.
func (h *HouseRegression) TrainBatch(worker, step, batchSize int) *nn.Batch {
	return h.batch(rngFor(h.seed, worker, step), batchSize)
}

// EvalBatch implements Dataset.
func (h *HouseRegression) EvalBatch(batchSize int) *nn.Batch {
	return h.batch(rngFor(h.seed, -1, 0), batchSize)
}

// SentimentSeq is the text-classification stand-in (IMDB): sequences where
// the label is decided by whether more "positive" than "negative" lexicon
// tokens occur — solvable only by aggregating evidence across timesteps.
type SentimentSeq struct {
	vocab, steps int
	posSet       map[int]bool
	negSet       map[int]bool
	seed         int64
}

// NewSentimentSeq builds the dataset; 10% of the vocabulary is positive
// lexicon, 10% negative.
func NewSentimentSeq(vocab, steps int, seed int64) *SentimentSeq {
	rng := rand.New(rand.NewSource(seed))
	s := &SentimentSeq{vocab: vocab, steps: steps, posSet: map[int]bool{}, negSet: map[int]bool{}, seed: seed}
	perm := rng.Perm(vocab)
	tenth := vocab / 10
	for _, t := range perm[:tenth] {
		s.posSet[t] = true
	}
	for _, t := range perm[tenth : 2*tenth] {
		s.negSet[t] = true
	}
	return s
}

// Name implements Dataset.
func (s *SentimentSeq) Name() string { return "IMDB" }

func (s *SentimentSeq) batch(rng *rand.Rand, batchSize int) *nn.Batch {
	tokens := make([][]int, batchSize)
	labels := make([]int, batchSize)
	for b := range tokens {
		seq := make([]int, s.steps)
		score := 0
		for t := range seq {
			tok := rng.Intn(s.vocab)
			seq[t] = tok
			if s.posSet[tok] {
				score++
			}
			if s.negSet[tok] {
				score--
			}
		}
		tokens[b] = seq
		if score > 0 {
			labels[b] = 1
		} else if score == 0 {
			// Break ties by planting one extra lexicon token.
			if rng.Intn(2) == 1 {
				labels[b] = 1
				seq[rng.Intn(s.steps)] = firstKey(s.posSet)
			} else {
				seq[rng.Intn(s.steps)] = firstKey(s.negSet)
			}
		}
		_ = labels
	}
	return &nn.Batch{Tokens: tokens, Labels: labels}
}

func firstKey(m map[int]bool) int {
	best := -1
	for k := range m {
		if best == -1 || k < best {
			best = k
		}
	}
	return best
}

// TrainBatch implements Dataset.
func (s *SentimentSeq) TrainBatch(worker, step, batchSize int) *nn.Batch {
	return s.batch(rngFor(s.seed, worker, step), batchSize)
}

// EvalBatch implements Dataset.
func (s *SentimentSeq) EvalBatch(batchSize int) *nn.Batch {
	return s.batch(rngFor(s.seed, -1, 0), batchSize)
}

// MarkovLM is the language-modelling stand-in (PTB): sequences drawn from a
// fixed first-order Markov chain with peaked transitions, so a model that
// learns the transition table reaches substantially lower loss than the
// unigram baseline.
type MarkovLM struct {
	vocab, steps int
	cum          []float32 // vocab×vocab cumulative transition rows
	seed         int64
}

// NewMarkovLM builds the chain. Each state transitions mostly to a handful
// of successors (peaked rows), mimicking natural-language bigram skew.
func NewMarkovLM(vocab, steps int, seed int64) *MarkovLM {
	rng := rand.New(rand.NewSource(seed))
	m := &MarkovLM{vocab: vocab, steps: steps, cum: make([]float32, vocab*vocab), seed: seed}
	row := make([]float32, vocab)
	for s := 0; s < vocab; s++ {
		var sum float32
		for j := range row {
			// Peaked weights: a few large successors per state.
			w := rng.Float32()
			w = w * w * w * w
			row[j] = w
			sum += w
		}
		var c float32
		for j := range row {
			c += row[j] / sum
			m.cum[s*vocab+j] = c
		}
		m.cum[s*vocab+vocab-1] = 1
	}
	return m
}

// Name implements Dataset.
func (m *MarkovLM) Name() string { return "PTB" }

func (m *MarkovLM) next(rng *rand.Rand, state int) int {
	u := rng.Float32()
	row := m.cum[state*m.vocab : (state+1)*m.vocab]
	lo, hi := 0, m.vocab-1
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (m *MarkovLM) batch(rng *rand.Rand, batchSize int) *nn.Batch {
	tokens := make([][]int, batchSize)
	next := make([][]int, batchSize)
	for b := range tokens {
		tokens[b] = make([]int, m.steps)
		next[b] = make([]int, m.steps)
		state := rng.Intn(m.vocab)
		for t := 0; t < m.steps; t++ {
			tokens[b][t] = state
			state = m.next(rng, state)
			next[b][t] = state
		}
	}
	return &nn.Batch{Tokens: tokens, NextTokens: next}
}

// TrainBatch implements Dataset.
func (m *MarkovLM) TrainBatch(worker, step, batchSize int) *nn.Batch {
	return m.batch(rngFor(m.seed, worker, step), batchSize)
}

// EvalBatch implements Dataset.
func (m *MarkovLM) EvalBatch(batchSize int) *nn.Batch {
	return m.batch(rngFor(m.seed, -1, 0), batchSize)
}

// MaskedLM is the BERT/Wikipedia stand-in (Case 7): Markov-chain sequences
// with ~15% of positions replaced by the mask token; the model predicts the
// original token at masked positions (labels elsewhere are -1).
type MaskedLM struct {
	chain  *MarkovLM
	MaskID int
	seed   int64
}

// NewMaskedLM builds the dataset. The mask id is vocab-1 and never occurs
// naturally (the chain draws from [0, vocab-1)).
func NewMaskedLM(vocab, steps int, seed int64) *MaskedLM {
	return &MaskedLM{chain: NewMarkovLM(vocab-1, steps, seed), MaskID: vocab - 1, seed: seed}
}

// Name implements Dataset.
func (m *MaskedLM) Name() string { return "Wikipedia" }

func (m *MaskedLM) batch(rng *rand.Rand, batchSize int) *nn.Batch {
	base := m.chain.batch(rng, batchSize)
	maskLabels := make([][]int, batchSize)
	for b, seq := range base.Tokens {
		maskLabels[b] = make([]int, len(seq))
		for t := range seq {
			maskLabels[b][t] = -1
			// Never mask position 0: the bigram model needs an unmasked
			// left neighbour somewhere, and masking later positions
			// suffices for 15% coverage.
			if t > 0 && rng.Float64() < 0.15 {
				maskLabels[b][t] = seq[t]
				seq[t] = m.MaskID
			}
		}
	}
	base.MaskLabels = maskLabels
	base.NextTokens = nil
	return base
}

// TrainBatch implements Dataset.
func (m *MaskedLM) TrainBatch(worker, step, batchSize int) *nn.Batch {
	return m.batch(rngFor(m.seed, worker, step), batchSize)
}

// EvalBatch implements Dataset.
func (m *MaskedLM) EvalBatch(batchSize int) *nn.Batch {
	return m.batch(rngFor(m.seed, -1, 0), batchSize)
}
