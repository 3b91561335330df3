package sparsecoll

import "fmt"

// ResidualCarrier is implemented by reducers that maintain a residual
// accumulator. The returned slice is the live internal state; callers must
// treat it as read-only. Tests use it to verify conservation laws, and the
// diagnostics in cmd/spardl-train report residual mass.
type ResidualCarrier interface {
	Residual() []float32
}

// ResidualRestorer is the elastic-recovery extension of ResidualCarrier: a
// reducer that can be rebuilt for a shrunk cluster and reloaded with the
// residual snapshot its predecessor carried. Restoring is a plain copy —
// the residual is per-worker state with no dependence on P, so the same
// snapshot is valid before and after a membership change.
type ResidualRestorer interface {
	ResidualCarrier
	// RestoreResidual overwrites the internal residual with a snapshot
	// taken from a same-length reducer. It panics on a length mismatch (a
	// configuration bug: the gradient size never changes across a shrink).
	RestoreResidual(res []float32)
}

// Residual forwards to the inner reducer so bucketed pipelines stay
// elastic-recoverable per segment; it returns nil when the inner method
// carries no residual (e.g. dense all-reduce).
func (s *SegmentReducer) Residual() []float32 {
	if c, ok := s.inner.(ResidualCarrier); ok {
		return c.Residual()
	}
	return nil
}

// RestoreResidual forwards to the inner reducer; restoring into a
// residual-free method is a no-op only for a nil/empty snapshot.
func (s *SegmentReducer) RestoreResidual(res []float32) {
	if r, ok := s.inner.(ResidualRestorer); ok {
		r.RestoreResidual(res)
		return
	}
	if len(res) != 0 {
		panic(fmt.Sprintf("sparsecoll: %s carries no residual to restore", s.inner.Name()))
	}
}
