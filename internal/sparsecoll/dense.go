package sparsecoll

import (
	"spardl/internal/collective"
	"spardl/internal/comm"
)

// DenseAllReduce adapts the classical dense all-reduce algorithms to the
// Reducer interface, as the no-compression baseline (the "S-SGD involves
// significant data communications" starting point of Section I). It uses
// Rabenseifner's algorithm when P is a power of two and the ring algorithm
// otherwise; both transfer 2n(P-1)/P dense elements per worker.
type DenseAllReduce struct{}

// NewDense builds the dense all-reduce baseline; n and k are ignored.
func NewDense(p, rank, n, k int) Reducer { return DenseAllReduce{} }

// Name implements Reducer.
func (DenseAllReduce) Name() string { return "Dense" }

// ReduceInto implements Reducer. The collective reads grad where it lies
// and fully overwrites out, so there is no input copy; at P = 1 the sum is
// grad itself and the collective copies it.
func (DenseAllReduce) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	ChargeMerge(ep, len(grad))
	if p := ep.P(); p&(p-1) == 0 {
		collective.RabenseifnerAllReduceInto(ep, grad, out)
	} else {
		collective.RingAllReduceInto(ep, grad, out)
	}
}
