// Package pipeline schedules layer-wise bucketed gradient synchronization:
// consecutive parameter tensors are fused — in the order backpropagation
// completes them, back-to-front — into buckets of roughly BucketBytes of
// gradient, each bucket receives a share of the global sparse budget k
// proportional to its size, and each bucket's sparse all-reduce launches on
// the worker's communication stream (comm.Endpoint.Overlap) the moment
// its last tensor's backward slice finishes. This is the tensor-fusion +
// compute/communication-overlap extension the SparDL paper's monolithic
// cost model (Section II) cannot express: with buckets the exposed
// communication of an iteration shrinks to what outlives the remaining
// backward pass.
package pipeline

import (
	"fmt"

	"spardl/internal/comm"
	"spardl/internal/nn"
	"spardl/internal/sparsecoll"
)

// GradElemBytes is the wire/memory size of one gradient value (float32),
// used to translate BucketBytes into element counts.
const GradElemBytes = 4

// Config selects the bucket schedule for one training run.
type Config struct {
	// BucketBytes is the fusion target: tensors are fused, back-to-front,
	// until a bucket holds at least this many bytes of float32 gradient.
	// 0 fuses nothing (one bucket per tensor, "per-layer"); a very large
	// value yields a single bucket, the paper's monolithic schedule, which
	// the trainer plans when it is given no Config.
	BucketBytes int
}

// Bucket is one fused group of consecutive tensors, in launch order:
// Buckets[0] holds the model's last tensors (whose gradients backward
// produces first).
type Bucket struct {
	Lo, Hi      int     // flat-gradient range covered
	K           int     // sparse budget share (≥1, proportional to Hi−Lo)
	First, Last int     // segment indices fused: segs[First..Last]
	Ready       float64 // virtual time this bucket's gradients are complete
}

// Size returns the number of gradient values in the bucket.
func (b Bucket) Size() int { return b.Hi - b.Lo }

// Plan fuses the model's gradient segments into buckets. ready must be
// nn.GradReadyTimes for the same segments: buckets are built back-to-front
// (the completion order of backpropagation) and returned in launch order
// with strictly increasing Ready times. The global budget k is split
// proportionally to bucket size with largest-remainder rounding, so the
// shares sum to k exactly whenever k ≥ len(buckets); smaller budgets clamp
// each share up to the minimum of 1 that every reducer requires.
func Plan(segs []nn.Segment, ready []float64, k int, cfg Config) []Bucket {
	if len(segs) == 0 {
		panic("pipeline: no gradient segments to schedule")
	}
	if len(ready) != len(segs) {
		panic(fmt.Sprintf("pipeline: %d ready times for %d segments", len(ready), len(segs)))
	}
	minElems := cfg.BucketBytes / GradElemBytes
	var buckets []Bucket
	// Walk segments from the back; a bucket closes once it reaches the
	// fusion target. The frontmost bucket keeps whatever remains, so it may
	// fall short of the target — like the trailing bucket of DDP fusion.
	last := len(segs) - 1
	for first := last; first >= 0; first-- {
		size := segs[last].Hi - segs[first].Lo
		if size < minElems && first > 0 {
			continue
		}
		buckets = append(buckets, Bucket{
			Lo: segs[first].Lo, Hi: segs[last].Hi,
			First: first, Last: last,
			// The bucket is complete when its frontmost tensor — the one
			// backward reaches last — is done.
			Ready: ready[first],
		})
		last = first - 1
	}
	splitBudget(buckets, k)
	return buckets
}

// splitBudget assigns each bucket its k share: ⌊k·size/n⌋ plus one for the
// largest fractional remainders, then a floor of 1 everywhere (reducers
// need k ≥ 1, so very uneven schedules may exceed k by the number of
// rounded-up slivers — the same dk/P ceiling the paper's block selection
// applies).
func splitBudget(buckets []Bucket, k int) {
	n := 0
	for _, b := range buckets {
		n += b.Size()
	}
	rem := make([]float64, len(buckets))
	total := 0
	for i := range buckets {
		exact := float64(k) * float64(buckets[i].Size()) / float64(n)
		buckets[i].K = int(exact)
		rem[i] = exact - float64(buckets[i].K)
		total += buckets[i].K
	}
	for total < k {
		best := -1
		for i := range buckets {
			if buckets[i].K < buckets[i].Size() && (best < 0 || rem[i] > rem[best]) {
				best = i
			}
		}
		if best < 0 {
			break // k exceeds the element count; every bucket is saturated
		}
		buckets[best].K++
		rem[best] = -1
		total++
	}
	for i := range buckets {
		if buckets[i].K < 1 {
			buckets[i].K = 1
		}
		if buckets[i].K > buckets[i].Size() {
			buckets[i].K = buckets[i].Size()
		}
	}
}

// Schedule is one worker's executable pipeline: the plan plus the
// per-bucket reducers.
type Schedule struct {
	Config   Config
	Buckets  []Bucket
	Reducers []*sparsecoll.SegmentReducer
}

// NewSchedule plans the buckets for the given segments and builds one
// SegmentReducer per bucket from the base factory.
func NewSchedule(base sparsecoll.Factory, p, rank, k int, segs []nn.Segment, ready []float64, cfg Config) *Schedule {
	s := &Schedule{Config: cfg, Buckets: Plan(segs, ready, k, cfg)}
	for _, b := range s.Buckets {
		s.Reducers = append(s.Reducers, sparsecoll.NewSegment(base, p, rank, b.Lo, b.Hi, b.K))
	}
	return s
}

// Run executes one iteration's synchronization: for each bucket in launch
// order it advances the main clock to the bucket's ready point (the
// backward slice that produces its gradients) and reduces the bucket on the
// communication stream, overlapped with the compute still ahead of it. A
// one-tensor bucket is reduced straight from its tensor's gradient;
// only a fused bucket materializes its segments into flat[Lo:Hi) first, so
// the per-layer schedule leaves flat untouched. A segment whose gradient
// already lives at flat[Lo:Hi) — flat is the packed gradient slab
// (nn.PackParams), as the trainer passes it — is not copied, so a bucket
// of packed tensors is reduced in place. It returns with the streams
// joined, the full global gradient assembled in out, and the main clock at
// max(compute end, communication end) — exactly the pipelined iteration
// time. The gradients must not change until Run returns.
//
// elapsed compute time is tracked from 0 at the call; the caller must not
// have charged this iteration's forward/backward compute already.
//
// Each bucket reduces through its SegmentReducer's ReduceInto, so a
// steady-state iteration performs no per-bucket allocation: every inner
// reducer draws its chunks from its own arena and writes straight into
// the caller's out vector.
func (s *Schedule) Run(ep comm.Endpoint, segs []nn.Segment, flat, out []float32) {
	elapsed := 0.0
	for i, b := range s.Buckets {
		if d := b.Ready - elapsed; d > 0 {
			ep.Compute(d)
			elapsed = b.Ready
		}
		grad := segs[b.First].Param.Grad
		if b.First != b.Last {
			for _, sg := range segs[b.First : b.Last+1] {
				if sg.Len() > 0 && &sg.Param.Grad[0] != &flat[sg.Lo] {
					sg.CopyGrad(flat)
				}
			}
			grad = flat[b.Lo:b.Hi]
		}
		r := s.Reducers[i]
		ep.Overlap(func(ep comm.Endpoint) {
			r.ReduceInto(ep, grad, out)
		})
	}
	ep.Join()
}
