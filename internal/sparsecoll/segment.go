package sparsecoll

import (
	"fmt"

	"spardl/internal/comm"
)

// SegmentReducer runs any base Factory over the sub-range [Lo, Hi) of a
// longer gradient vector. The bucketed gradient pipeline builds one per
// bucket: the inner reducer sees a self-contained length-(Hi−Lo) problem
// with its own sparse budget, so every existing method — SparDL with teams,
// the SparCML baselines, dense all-reduce — and every wire transport work
// unchanged, and residual state (which lives inside the inner reducer)
// stays strictly per-bucket.
type SegmentReducer struct {
	Lo, Hi int
	K      int // effective sparse budget after clamping to [1, Hi−Lo]
	inner  Reducer
}

// NewSegment builds a reducer over [lo, hi) from base. The requested budget
// k is clamped to [1, hi−lo] — proportional bucket shares can round to zero
// for tiny tensors, and no reducer accepts k outside that range.
func NewSegment(base Factory, p, rank, lo, hi, k int) *SegmentReducer {
	if lo < 0 || hi <= lo {
		panic(fmt.Sprintf("sparsecoll: segment [%d,%d) is empty or negative", lo, hi))
	}
	if k < 1 {
		k = 1
	}
	if k > hi-lo {
		k = hi - lo
	}
	return &SegmentReducer{Lo: lo, Hi: hi, K: k, inner: base(p, rank, hi-lo, k)}
}

// Name implements Reducer, tagging the inner method with its range.
func (s *SegmentReducer) Name() string {
	return fmt.Sprintf("%s[%d:%d)", s.inner.Name(), s.Lo, s.Hi)
}

// BaseName returns the inner method's name without the range tag — the
// label a whole-model schedule built from segments should report.
func (s *SegmentReducer) BaseName() string { return s.inner.Name() }

// ReduceInto implements Reducer over the segment: grad has length Hi−Lo
// and may live anywhere (a parameter tensor's own gradient, or
// flat[Lo:Hi]); the global sub-gradient is written into out[Lo:Hi) of the
// full-length out, and the rest of out is untouched, so per-bucket calls
// assemble the full global gradient in place with no per-bucket
// allocation.
func (s *SegmentReducer) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	if len(grad) != s.Hi-s.Lo {
		panic(fmt.Sprintf("sparsecoll: segment [%d,%d) got %d gradient values", s.Lo, s.Hi, len(grad)))
	}
	s.inner.ReduceInto(ep, grad, out[s.Lo:s.Hi])
}
