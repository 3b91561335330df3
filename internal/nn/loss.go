package nn

import (
	"fmt"
	"math"
	"slices"
)

// Mean is the float64 numerator and the count behind one mean of a loss.
// Sums and counts of disjoint rows add, so shards of one batch can be
// scored apart and folded into the whole batch's loss by MeanLoss.
type Mean struct {
	Sum   float64
	Count int
}

// Means returns the means behind a loss node's value — one for
// CrossEntropy and MSE, one per step for LSTMLM's per-step average — and
// nil on any other tensor. MeanLoss(t.Means()) is t.Data[0], bit for bit.
func (t *Tensor) Means() []Mean {
	if len(t.means) == 0 {
		return nil
	}
	return t.means
}

// setMeans records a loss node's means, in its own storage.
func (t *Tensor) setMeans(means ...Mean) {
	if t.means == nil {
		t.means = t.mean[:0]
	}
	t.means = append(t.means[:0], means...)
}

// MeanLoss is the loss value behind means: one mean is its Sum / Count
// rounded to float32 (a Count of 0 divides by 1, as CrossEntropy does);
// several are the float32 average of their values, added in order, as
// LSTMLM averages its steps.
func MeanLoss(means []Mean) float32 {
	var loss float32
	for i, m := range means {
		v := float32(m.Sum / float64(max(m.Count, 1)))
		if i == 0 {
			loss = v
		} else {
			loss += v
		}
	}
	if len(means) > 1 {
		loss *= 1 / float32(len(means))
	}
	return loss
}

// CrossEntropy computes the mean softmax cross-entropy of logits [B×C]
// against integer labels (len B), as a 1×1 tensor. Labels set to -1 are
// ignored (weight 0), which implements masked language-model losses.
func CrossEntropy(logits *Tensor, labels []int) *Tensor {
	if len(labels) != logits.R {
		panic(fmt.Sprintf("nn: CrossEntropy %d labels for %d rows", len(labels), logits.R))
	}
	out := newResult(1, 1, &crossEntropyOp, logits)
	out.ints = append(out.ints[:0], labels...)
	out.aux = slices.Grow(out.aux[:0], logits.R*logits.C)[:logits.R*logits.C]
	probs := out.aux
	active := 0
	var total float64
	for b := 0; b < logits.R; b++ {
		row := logits.Data[b*logits.C : (b+1)*logits.C]
		prow := probs[b*logits.C : (b+1)*logits.C]
		// Stable softmax.
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			prow[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range prow {
			prow[j] *= inv
		}
		if labels[b] < 0 {
			continue
		}
		active++
		p := float64(prow[labels[b]])
		if p < 1e-12 {
			p = 1e-12
		}
		total += -math.Log(p)
	}
	out.setMeans(Mean{Sum: total, Count: active})
	if active == 0 {
		active = 1
	}
	out.s = float32(active)
	out.Data[0] = float32(total / float64(active))
	return out
}

var crossEntropyOp = op{back: crossEntropyBack}

// crossEntropyBack reads the probabilities (aux), labels (ints) and label
// count (s) CrossEntropy stored on its node.
func crossEntropyBack(out *Tensor) {
	logits := out.prev[0]
	if !logits.needGrad {
		return
	}
	logits.ensureGrad()
	g := out.Grad[0] / out.s
	for b, label := range out.ints {
		if label < 0 {
			continue
		}
		prow := out.aux[b*logits.C : (b+1)*logits.C]
		grow := logits.Grad[b*logits.C : (b+1)*logits.C]
		for j := range prow {
			delta := prow[j]
			if j == label {
				delta -= 1
			}
			grow[j] += g * delta
		}
	}
}

// Argmax returns the per-row argmax of a [B×C] tensor.
func Argmax(t *Tensor) []int {
	out := make([]int, t.R)
	for b := range out {
		out[b] = argmaxRow(t.Data[b*t.C : (b+1)*t.C])
	}
	return out
}

// argmaxRow is the index of row's first largest element.
func argmaxRow(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// MSE computes the mean squared error between pred [B×1] and targets
// (len B) as a 1×1 tensor.
func MSE(pred *Tensor, targets []float32) *Tensor {
	if pred.C != 1 || len(targets) != pred.R {
		panic(fmt.Sprintf("nn: MSE shape mismatch %dx%d vs %d targets", pred.R, pred.C, len(targets)))
	}
	out := newResult(1, 1, &mseOp, pred)
	out.aux = append(out.aux[:0], targets...)
	var total float64
	for b := 0; b < pred.R; b++ {
		d := float64(pred.Data[b] - targets[b])
		total += d * d
	}
	out.setMeans(Mean{Sum: total, Count: pred.R})
	out.Data[0] = float32(total / float64(pred.R))
	return out
}

var mseOp = op{back: mseBack, readsInputs: true}

// mseBack reads the targets (aux) MSE stored on its node.
func mseBack(out *Tensor) {
	pred := out.prev[0]
	if !pred.needGrad {
		return
	}
	pred.ensureGrad()
	g := out.Grad[0] * 2 / float32(pred.R)
	for b, target := range out.aux {
		pred.Grad[b] += g * (pred.Data[b] - target)
	}
}
