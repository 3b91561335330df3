package nn

import (
	"math/rand"
)

// Batch is one training mini-batch. Which fields are set depends on the
// task: dense-feature tasks use X with Labels (classification) or Targets
// (regression); sequence tasks use Tokens with Labels (classification),
// NextTokens (language modelling) or MaskLabels (masked LM).
type Batch struct {
	X          []float32 // dense features, row-major [B×F]
	Features   int
	Tokens     [][]int   // [B][T] token ids
	Labels     []int     // [B] class labels (or -1 to ignore)
	Targets    []float32 // [B] regression targets
	NextTokens [][]int   // [B][T] next-token targets for language models
	MaskLabels [][]int   // [B][T] original ids at masked positions, -1 elsewhere
}

// Size returns the number of examples in the batch.
func (b *Batch) Size() int {
	if b.Tokens != nil {
		return len(b.Tokens)
	}
	if b.Targets != nil {
		return len(b.Targets)
	}
	return len(b.Labels)
}

// Rows returns rows [lo, hi) of the batch as a batch that shares its
// storage.
func (b *Batch) Rows(lo, hi int) *Batch {
	r := &Batch{Features: b.Features}
	if b.X != nil {
		r.X = b.X[lo*b.Features : hi*b.Features]
	}
	if b.Tokens != nil {
		r.Tokens = b.Tokens[lo:hi]
	}
	if b.Labels != nil {
		r.Labels = b.Labels[lo:hi]
	}
	if b.Targets != nil {
		r.Targets = b.Targets[lo:hi]
	}
	if b.NextTokens != nil {
		r.NextTokens = b.NextTokens[lo:hi]
	}
	if b.MaskLabels != nil {
		r.MaskLabels = b.MaskLabels[lo:hi]
	}
	return r
}

// Model is a trainable network: the trainer packs Params' gradients into
// one slab (PackParams) for the communication layer and applies the
// synchronized update.
type Model interface {
	Params() []*Tensor
	// Loss runs the forward pass and returns the scalar loss node plus a
	// task metric: classification models report accuracy in [0,1];
	// regression and language models report the loss value itself (the
	// quantity the paper plots for those cases). The graph lives on the
	// model's tape: it is valid until the model's next Loss.
	Loss(batch *Batch) (*Tensor, float64)
}

// MLPClassifier is a ReLU multilayer perceptron with a softmax head — the
// scaled stand-in for the paper's VGG image classifiers (Cases 1-2).
type MLPClassifier struct {
	layers []*Linear
	params []*Tensor
	tape   *tape
}

// NewMLPClassifier builds an MLP with the given layer dimensions
// (dims[0] = input features, dims[len-1] = classes).
func NewMLPClassifier(rng *rand.Rand, dims []int) *MLPClassifier {
	m := &MLPClassifier{}
	for i := 0; i+1 < len(dims); i++ {
		l := NewLinear(rng, dims[i], dims[i+1])
		m.layers = append(m.layers, l)
		m.params = append(m.params, l.Params()...)
	}
	m.tape = newTape(m.params)
	return m
}

// Params implements Model.
func (m *MLPClassifier) Params() []*Tensor { return m.params }

// Loss implements Model.
func (m *MLPClassifier) Loss(batch *Batch) (*Tensor, float64) {
	m.tape.rewind()
	h := m.tape.input(batch.Size(), batch.Features, batch.X)
	for i, l := range m.layers {
		h = l.Apply(h)
		if i+1 < len(m.layers) {
			h = ReLU(h)
		}
	}
	return CrossEntropy(h, batch.Labels), accuracy(h, batch.Labels)
}

func accuracy(logits *Tensor, labels []int) float64 {
	correct, total := 0, 0
	for i, l := range labels {
		if l < 0 {
			continue
		}
		total++
		if argmaxRow(logits.Data[i*logits.C:(i+1)*logits.C]) == l {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// MLPRegressor is the stand-in for the paper's VGG-11 image-regression
// case (Case 4, the House price dataset): an MLP trunk with a single
// linear output trained by MSE.
type MLPRegressor struct {
	layers []*Linear
	params []*Tensor
	tape   *tape
}

// NewMLPRegressor builds the regression MLP (dims[len-1] must be 1).
func NewMLPRegressor(rng *rand.Rand, dims []int) *MLPRegressor {
	m := &MLPRegressor{}
	for i := 0; i+1 < len(dims); i++ {
		l := NewLinear(rng, dims[i], dims[i+1])
		m.layers = append(m.layers, l)
		m.params = append(m.params, l.Params()...)
	}
	m.tape = newTape(m.params)
	return m
}

// Params implements Model.
func (m *MLPRegressor) Params() []*Tensor { return m.params }

// Loss implements Model. The metric is the MSE itself.
func (m *MLPRegressor) Loss(batch *Batch) (*Tensor, float64) {
	m.tape.rewind()
	h := m.tape.input(batch.Size(), batch.Features, batch.X)
	for i, l := range m.layers {
		h = l.Apply(h)
		if i+1 < len(m.layers) {
			h = ReLU(h)
		}
	}
	loss := MSE(h, batch.Targets)
	return loss, float64(loss.Data[0])
}

// ResMLPClassifier is a residual MLP — the stand-in for ResNet-50
// (Case 3): an input projection followed by pre-activation residual blocks
// and a softmax head.
type ResMLPClassifier struct {
	proj   *Linear
	blocks [][2]*Linear
	head   *Linear
	params []*Tensor
	tape   *tape
}

// NewResMLPClassifier builds the network with the given width and number of
// residual blocks.
func NewResMLPClassifier(rng *rand.Rand, in, width, blocks, classes int) *ResMLPClassifier {
	m := &ResMLPClassifier{proj: NewLinear(rng, in, width)}
	m.params = append(m.params, m.proj.Params()...)
	for i := 0; i < blocks; i++ {
		a := NewLinear(rng, width, width)
		b := NewLinear(rng, width, width)
		m.blocks = append(m.blocks, [2]*Linear{a, b})
		m.params = append(m.params, a.Params()...)
		m.params = append(m.params, b.Params()...)
	}
	m.head = NewLinear(rng, width, classes)
	m.params = append(m.params, m.head.Params()...)
	m.tape = newTape(m.params)
	return m
}

// Params implements Model.
func (m *ResMLPClassifier) Params() []*Tensor { return m.params }

// Loss implements Model.
func (m *ResMLPClassifier) Loss(batch *Batch) (*Tensor, float64) {
	m.tape.rewind()
	h := m.proj.Apply(m.tape.input(batch.Size(), batch.Features, batch.X))
	for _, blk := range m.blocks {
		inner := blk[1].Apply(ReLU(blk[0].Apply(ReLU(h))))
		h = Add(h, inner)
	}
	logits := m.head.Apply(ReLU(h))
	return CrossEntropy(logits, batch.Labels), accuracy(logits, batch.Labels)
}

// LSTMClassifier is the stand-in for the paper's LSTM-IMDB sentiment model
// (Case 5): embedding → LSTM → final-state softmax head.
type LSTMClassifier struct {
	embed  *Tensor
	cell   *LSTMCell
	head   *Linear
	hidden int
	params []*Tensor
	tape   *tape
	ids    []int // one timestep's tokens
}

// NewLSTMClassifier builds the model.
func NewLSTMClassifier(rng *rand.Rand, vocab, dim, hidden, classes int) *LSTMClassifier {
	m := &LSTMClassifier{
		embed:  NewParam(vocab, dim, GlorotInit(rng, vocab, dim)),
		cell:   NewLSTMCell(rng, dim, hidden),
		head:   NewLinear(rng, hidden, classes),
		hidden: hidden,
	}
	m.params = append(m.params, m.embed)
	m.params = append(m.params, m.cell.Params()...)
	m.params = append(m.params, m.head.Params()...)
	m.tape = newTape(m.params)
	return m
}

// Params implements Model.
func (m *LSTMClassifier) Params() []*Tensor { return m.params }

// Loss implements Model.
func (m *LSTMClassifier) Loss(batch *Batch) (*Tensor, float64) {
	m.tape.rewind()
	b := batch.Size()
	steps := len(batch.Tokens[0])
	h, c := m.tape.zeros(b, m.hidden), m.tape.zeros(b, m.hidden)
	for t := 0; t < steps; t++ {
		m.ids = m.ids[:0]
		for i := 0; i < b; i++ {
			m.ids = append(m.ids, batch.Tokens[i][t])
		}
		h, c = m.cell.Step(Embed(m.embed, m.ids), h, c)
	}
	logits := m.head.Apply(h)
	return CrossEntropy(logits, batch.Labels), accuracy(logits, batch.Labels)
}

// LSTMLM is the stand-in for LSTM-PTB language modelling (Case 6):
// embedding → LSTM → per-step softmax over the vocabulary, trained to
// predict the next token. The metric is the mean loss (the paper plots
// loss for this case).
type LSTMLM struct {
	embed  *Tensor
	cell   *LSTMCell
	head   *Linear
	hidden int
	params []*Tensor
	tape   *tape
	// One timestep's tokens and next tokens, and every step's mean.
	ids, labels []int
	means       []Mean
}

// NewLSTMLM builds the model.
func NewLSTMLM(rng *rand.Rand, vocab, dim, hidden int) *LSTMLM {
	m := &LSTMLM{
		embed:  NewParam(vocab, dim, GlorotInit(rng, vocab, dim)),
		cell:   NewLSTMCell(rng, dim, hidden),
		head:   NewLinear(rng, hidden, vocab),
		hidden: hidden,
	}
	m.params = append(m.params, m.embed)
	m.params = append(m.params, m.cell.Params()...)
	m.params = append(m.params, m.head.Params()...)
	m.tape = newTape(m.params)
	return m
}

// Params implements Model.
func (m *LSTMLM) Params() []*Tensor { return m.params }

// Loss implements Model.
func (m *LSTMLM) Loss(batch *Batch) (*Tensor, float64) {
	m.tape.rewind()
	b := batch.Size()
	steps := len(batch.Tokens[0])
	h, c := m.tape.zeros(b, m.hidden), m.tape.zeros(b, m.hidden)
	var loss *Tensor
	m.means = m.means[:0]
	for t := 0; t < steps; t++ {
		m.ids, m.labels = m.ids[:0], m.labels[:0]
		for i := 0; i < b; i++ {
			m.ids = append(m.ids, batch.Tokens[i][t])
			m.labels = append(m.labels, batch.NextTokens[i][t])
		}
		h, c = m.cell.Step(Embed(m.embed, m.ids), h, c)
		stepLoss := CrossEntropy(m.head.Apply(h), m.labels)
		m.means = append(m.means, stepLoss.means[0])
		if loss == nil {
			loss = stepLoss
		} else {
			loss = Add(loss, stepLoss)
		}
	}
	loss = Scale(loss, 1/float32(steps))
	loss.setMeans(m.means...)
	return loss, float64(loss.Data[0])
}

// BERTLike is the stand-in for the paper's BERT masked-LM case (Case 7).
// It is attention-free: each position embeds its own
// (possibly masked) token plus its left neighbour — a bigram context —
// followed by residual feed-forward blocks and a vocabulary head; the loss
// is cross-entropy at masked positions only. The metric is the loss.
type BERTLike struct {
	embedCur, embedPrev *Tensor
	blocks              [][2]*Linear
	head                *Linear
	params              []*Tensor
	tape                *tape
	cur, prev, labels   []int // the batch's positions, flattened
}

// NewBERTLike builds the model with the given width and block count.
func NewBERTLike(rng *rand.Rand, vocab, dim, blocks int) *BERTLike {
	m := &BERTLike{
		embedCur:  NewParam(vocab, dim, GlorotInit(rng, vocab, dim)),
		embedPrev: NewParam(vocab, dim, GlorotInit(rng, vocab, dim)),
	}
	m.params = append(m.params, m.embedCur, m.embedPrev)
	for i := 0; i < blocks; i++ {
		a := NewLinear(rng, dim, dim)
		b := NewLinear(rng, dim, dim)
		m.blocks = append(m.blocks, [2]*Linear{a, b})
		m.params = append(m.params, a.Params()...)
		m.params = append(m.params, b.Params()...)
	}
	m.head = NewLinear(rng, dim, vocab)
	m.params = append(m.params, m.head.Params()...)
	m.tape = newTape(m.params)
	return m
}

// Params implements Model.
func (m *BERTLike) Params() []*Tensor { return m.params }

// Loss implements Model.
func (m *BERTLike) Loss(batch *Batch) (*Tensor, float64) {
	m.tape.rewind()
	b := batch.Size()
	steps := len(batch.Tokens[0])
	cur, prev, labels := m.cur[:0], m.prev[:0], m.labels[:0]
	for i := 0; i < b; i++ {
		for t := 0; t < steps; t++ {
			cur = append(cur, batch.Tokens[i][t])
			if t == 0 {
				prev = append(prev, batch.Tokens[i][t])
			} else {
				prev = append(prev, batch.Tokens[i][t-1])
			}
			labels = append(labels, batch.MaskLabels[i][t])
		}
	}
	m.cur, m.prev, m.labels = cur, prev, labels
	h := Add(Embed(m.embedCur, cur), Embed(m.embedPrev, prev))
	for _, blk := range m.blocks {
		inner := blk[1].Apply(ReLU(blk[0].Apply(ReLU(h))))
		h = Add(h, inner)
	}
	logits := m.head.Apply(h)
	loss := CrossEntropy(logits, labels)
	return loss, float64(loss.Data[0])
}
