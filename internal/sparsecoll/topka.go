package sparsecoll

import (
	"spardl/internal/collective"
	"spardl/internal/comm"
	"spardl/internal/sparse"
)

// TopkA is SparCML's sparse all-gather all-reduce [Renggli et al., SC'19]:
// every worker selects its local top-k, all workers all-gather the k-sized
// chunks (⌈log₂P⌉ rounds), and each worker sums the P chunks locally. SGA
// is "alleviated" only in the sense that no intermediate summation happens
// on the wire — the price is bandwidth proportional to the worker count:
// 2(P-1)k·β (Table I), versus SparDL's 4k(P-1)/P·β.
//
// Residuals: local only (LRES) — values not selected by the local top-k
// feed back into the next iteration, as in SparCML.
type TopkA struct {
	base
	world []int
}

// NewTopkA builds the TopkA reducer for one worker.
func NewTopkA(p, rank, n, k int) Reducer {
	return &TopkA{base: newBase("TopkA", n, k), world: collective.WorldRanks(p)}
}

// Reduce implements Reducer.
func (t *TopkA) Reduce(ep comm.Endpoint, grad []float32) []float32 {
	out := make([]float32, t.n)
	t.ReduceInto(ep, grad, out)
	return out
}

// ReduceInto implements InPlaceReducer; steady state is allocation-free.
//
//spardl:hotpath
func (t *TopkA) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	t.begin(grad)

	// LRES: the selection leaves the vector; everything not selected
	// locally stays behind as residual.
	local := t.ar.TopKDense(t.residual, 0, t.n, t.k)
	ChargeScan(ep, t.n)
	local.ClearInDense(t.residual)

	items := collective.BruckAllGatherAlloc(ep, t.world, ep.Rank(), local, t.tx.ItemBytes, t.ar)
	chunks := t.ar.Chunks(len(items))
	total := 0
	for _, it := range items {
		c := it.(*sparse.Chunk)
		chunks = append(chunks, c)
		total += c.Len()
	}
	ChargeMerge(ep, total)
	// The union may hold up to P·k distinct indices — TopkA simply accepts
	// the densification (the SGA growth happens locally, not on the wire).
	scatterInto(out, chunks)
}
