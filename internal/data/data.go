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
	// shard. Different workers see disjoint example streams. A TrainBatch
	// is valid until that dataset's next one, which reuses its storage.
	TrainBatch(worker, step, batchSize int) *nn.Batch
	// EvalBatch returns a held-out batch for metric reporting; it shares
	// nothing with the dataset.
	EvalBatch(batchSize int) *nn.Batch
}

// seedFor derives the deterministic stream of (seed, worker, step);
// workers use disjoint streams and eval uses worker = -1.
func seedFor(seed int64, worker, step int) int64 {
	h := seed
	h = h*1000003 + int64(worker+7)
	h = h*1000003 + int64(step+13)
	return h
}

// scratch is a dataset's one training batch and random stream, which every
// TrainBatch reuses: a reseeded rand.Rand draws what a new one would,
// without allocating its state.
type scratch struct {
	rng *rand.Rand
	b   nn.Batch
}

// next reseeds the stream for (seed, worker, step) and returns it with the
// batch to fill.
func (s *scratch) next(seed int64, worker, step int) (*rand.Rand, *nn.Batch) {
	h := seedFor(seed, worker, step)
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(h))
	} else {
		s.rng.Seed(h)
	}
	return s.rng, &s.b
}

// evalStream returns the held-out set's stream and a batch of its own.
func evalStream(seed int64) (*rand.Rand, *nn.Batch) {
	return rand.New(rand.NewSource(seedFor(seed, -1, 0))), &nn.Batch{}
}

// resize returns s with length n, reusing its storage when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resizeRows returns s as rows rows of cols elements each, reusing its
// storage when it fits.
func resizeRows(s [][]int, rows, cols int) [][]int {
	s = resize(s, rows)
	for i := range s {
		s[i] = resize(s[i], cols)
	}
	return s
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
	train    scratch
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

func (g *GaussianClasses) batch(rng *rand.Rand, into *nn.Batch, batchSize int) *nn.Batch {
	x, labels := resize(into.X, batchSize*g.features), resize(into.Labels, batchSize)
	for b := 0; b < batchSize; b++ {
		c := rng.Intn(g.classes)
		labels[b] = c
		for j := 0; j < g.features; j++ {
			x[b*g.features+j] = g.protos[c*g.features+j] + g.noise*float32(rng.NormFloat64())
		}
	}
	*into = nn.Batch{X: x, Features: g.features, Labels: labels}
	return into
}

// TrainBatch implements Dataset.
func (g *GaussianClasses) TrainBatch(worker, step, batchSize int) *nn.Batch {
	rng, into := g.train.next(g.seed, worker, step)
	return g.batch(rng, into, batchSize)
}

// EvalBatch implements Dataset.
func (g *GaussianClasses) EvalBatch(batchSize int) *nn.Batch {
	rng, into := evalStream(g.seed)
	return g.batch(rng, into, batchSize)
}

// HouseRegression is the image-regression stand-in (Case 4): targets are a
// fixed nonlinear function of the features plus observation noise.
type HouseRegression struct {
	features int
	w        []float32
	seed     int64
	train    scratch
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

func (h *HouseRegression) batch(rng *rand.Rand, into *nn.Batch, batchSize int) *nn.Batch {
	x, y := resize(into.X, batchSize*h.features), resize(into.Targets, batchSize)
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
	*into = nn.Batch{X: x, Features: h.features, Targets: y}
	return into
}

// TrainBatch implements Dataset.
func (h *HouseRegression) TrainBatch(worker, step, batchSize int) *nn.Batch {
	rng, into := h.train.next(h.seed, worker, step)
	return h.batch(rng, into, batchSize)
}

// EvalBatch implements Dataset.
func (h *HouseRegression) EvalBatch(batchSize int) *nn.Batch {
	rng, into := evalStream(h.seed)
	return h.batch(rng, into, batchSize)
}

// SentimentSeq is the text-classification stand-in (IMDB): sequences where
// the label is decided by whether more "positive" than "negative" lexicon
// tokens occur — solvable only by aggregating evidence across timesteps.
type SentimentSeq struct {
	vocab, steps int
	posSet       map[int]bool
	negSet       map[int]bool
	seed         int64
	train        scratch
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

func (s *SentimentSeq) batch(rng *rand.Rand, into *nn.Batch, batchSize int) *nn.Batch {
	tokens, labels := resizeRows(into.Tokens, batchSize, s.steps), resize(into.Labels, batchSize)
	for b, seq := range tokens {
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
		labels[b] = 0
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
	}
	*into = nn.Batch{Tokens: tokens, Labels: labels}
	return into
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
	rng, into := s.train.next(s.seed, worker, step)
	return s.batch(rng, into, batchSize)
}

// EvalBatch implements Dataset.
func (s *SentimentSeq) EvalBatch(batchSize int) *nn.Batch {
	rng, into := evalStream(s.seed)
	return s.batch(rng, into, batchSize)
}

// MarkovLM is the language-modelling stand-in (PTB): sequences drawn from a
// fixed first-order Markov chain with peaked transitions, so a model that
// learns the transition table reaches substantially lower loss than the
// unigram baseline.
type MarkovLM struct {
	vocab, steps int
	cum          []float32 // vocab×vocab cumulative transition rows
	seed         int64
	train        scratch
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

func (m *MarkovLM) batch(rng *rand.Rand, into *nn.Batch, batchSize int) *nn.Batch {
	tokens, next := m.draw(rng, into.Tokens, into.NextTokens, batchSize)
	*into = nn.Batch{Tokens: tokens, NextTokens: next}
	return into
}

// draw fills batchSize sequences and their next-token targets into tokens
// and next, reusing their storage when it fits.
func (m *MarkovLM) draw(rng *rand.Rand, tokens, next [][]int, batchSize int) ([][]int, [][]int) {
	tokens, next = resizeRows(tokens, batchSize, m.steps), resizeRows(next, batchSize, m.steps)
	for b := range tokens {
		state := rng.Intn(m.vocab)
		for t := 0; t < m.steps; t++ {
			tokens[b][t] = state
			state = m.next(rng, state)
			next[b][t] = state
		}
	}
	return tokens, next
}

// TrainBatch implements Dataset.
func (m *MarkovLM) TrainBatch(worker, step, batchSize int) *nn.Batch {
	rng, into := m.train.next(m.seed, worker, step)
	return m.batch(rng, into, batchSize)
}

// EvalBatch implements Dataset.
func (m *MarkovLM) EvalBatch(batchSize int) *nn.Batch {
	rng, into := evalStream(m.seed)
	return m.batch(rng, into, batchSize)
}

// MaskedLM is the BERT/Wikipedia stand-in (Case 7): Markov-chain sequences
// with ~15% of positions replaced by the mask token; the model predicts the
// original token at masked positions (labels elsewhere are -1).
type MaskedLM struct {
	chain  *MarkovLM
	MaskID int
	seed   int64
	train  scratch
	next   [][]int // the chain's next-token rows behind train, which a masked batch does not carry
}

// NewMaskedLM builds the dataset. The mask id is vocab-1 and never occurs
// naturally (the chain draws from [0, vocab-1)).
func NewMaskedLM(vocab, steps int, seed int64) *MaskedLM {
	return &MaskedLM{chain: NewMarkovLM(vocab-1, steps, seed), MaskID: vocab - 1, seed: seed}
}

// Name implements Dataset.
func (m *MaskedLM) Name() string { return "Wikipedia" }

func (m *MaskedLM) batch(rng *rand.Rand, into *nn.Batch, next *[][]int, batchSize int) *nn.Batch {
	tokens, nextRows := m.chain.draw(rng, into.Tokens, *next, batchSize)
	*next = nextRows
	maskLabels := resizeRows(into.MaskLabels, batchSize, m.chain.steps)
	for b, seq := range tokens {
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
	*into = nn.Batch{Tokens: tokens, MaskLabels: maskLabels}
	return into
}

// TrainBatch implements Dataset.
func (m *MaskedLM) TrainBatch(worker, step, batchSize int) *nn.Batch {
	rng, into := m.train.next(m.seed, worker, step)
	return m.batch(rng, into, &m.next, batchSize)
}

// EvalBatch implements Dataset.
func (m *MaskedLM) EvalBatch(batchSize int) *nn.Batch {
	rng, into := evalStream(m.seed)
	var next [][]int
	return m.batch(rng, into, &next, batchSize)
}
