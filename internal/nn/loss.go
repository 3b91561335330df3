package nn

import (
	"fmt"
	"math"
)

// CrossEntropy computes the mean softmax cross-entropy of logits [B×C]
// against integer labels (len B), as a 1×1 tensor. Labels set to -1 are
// ignored (weight 0), which implements masked language-model losses.
func CrossEntropy(logits *Tensor, labels []int) *Tensor {
	if len(labels) != logits.R {
		panic(fmt.Sprintf("nn: CrossEntropy %d labels for %d rows", len(labels), logits.R))
	}
	out := newResult(1, 1, logits)
	probs := make([]float32, logits.R*logits.C)
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
	if active == 0 {
		active = 1
	}
	out.Data[0] = float32(total / float64(active))
	out.back = func() {
		if !logits.needGrad {
			return
		}
		logits.ensureGrad()
		g := out.Grad[0] / float32(active)
		for b := 0; b < logits.R; b++ {
			if labels[b] < 0 {
				continue
			}
			prow := probs[b*logits.C : (b+1)*logits.C]
			grow := logits.Grad[b*logits.C : (b+1)*logits.C]
			for j := range prow {
				delta := prow[j]
				if j == labels[b] {
					delta -= 1
				}
				grow[j] += g * delta
			}
		}
	}
	return out
}

// Argmax returns the per-row argmax of a [B×C] tensor.
func Argmax(t *Tensor) []int {
	out := make([]int, t.R)
	for b := 0; b < t.R; b++ {
		row := t.Data[b*t.C : (b+1)*t.C]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[b] = best
	}
	return out
}

// MSE computes the mean squared error between pred [B×1] and targets
// (len B) as a 1×1 tensor.
func MSE(pred *Tensor, targets []float32) *Tensor {
	if pred.C != 1 || len(targets) != pred.R {
		panic(fmt.Sprintf("nn: MSE shape mismatch %dx%d vs %d targets", pred.R, pred.C, len(targets)))
	}
	out := newResult(1, 1, pred)
	var total float64
	for b := 0; b < pred.R; b++ {
		d := float64(pred.Data[b] - targets[b])
		total += d * d
	}
	out.Data[0] = float32(total / float64(pred.R))
	out.back = func() {
		if !pred.needGrad {
			return
		}
		pred.ensureGrad()
		g := out.Grad[0] * 2 / float32(pred.R)
		for b := 0; b < pred.R; b++ {
			pred.Grad[b] += g * (pred.Data[b] - targets[b])
		}
	}
	return out
}
