package sparsecoll

import (
	"spardl/internal/collective"
	"spardl/internal/comm"
	"spardl/internal/sparse"
)

// TopkDSA is SparCML's split (reduce-scatter + all-gather) sparse
// all-reduce [Renggli et al., SC'19]. The reduce-scatter phase sends each
// worker's top-k entries *directly* to the owner of the enclosing gradient
// block — P-1 messages, hence the (P + 2log P)α latency the paper
// criticizes. The all-gather phase lets SGA happen: reduced blocks carry up
// to k entries each, and a block is transmitted densely once its COO form
// would exceed the dense encoding of its index range, giving the
// [4(P-1)/P·kβ, (P-1)/P·(2k+n)β] bandwidth envelope of Table I.
//
// Residuals: local only (LRES), as in SparCML.
type TopkDSA struct {
	base
	part  *sparse.Partition
	world []int
	size  collective.SizeFunc // blockBytes, bound once so the hot path builds no closure
}

// NewTopkDSA builds the TopkDSA reducer for one worker of a P-worker
// cluster.
func NewTopkDSA(p, rank, n, k int) Reducer {
	t := &TopkDSA{base: newBase("TopkDSA", n, k), part: sparse.NewPartition(n, p),
		world: collective.WorldRanks(p)}
	t.size = t.blockBytes
	return t
}

// dsaBlock is an all-gather item: the reduced chunk of one gradient block.
type dsaBlock struct {
	block int
	c     *sparse.Chunk
}

// blockBytes charges a reduced block in sparse form until the dense
// encoding of its index range is cheaper (the "switch to dense
// transmission" of TopkDSA). It is a function of the chunk and the block
// span alone, so the owner and every forwarding hop charge the same.
//
//spardl:hotpath
func (t *TopkDSA) blockBytes(it any) int {
	b := it.(*dsaBlock)
	return min(t.tx.ChunkBytes(b.c), collective.DenseBytes(t.part.Size(b.block)))
}

// Reduce implements Reducer.
func (t *TopkDSA) Reduce(ep comm.Endpoint, grad []float32) []float32 {
	out := make([]float32, t.n)
	t.ReduceInto(ep, grad, out)
	return out
}

// ReduceInto implements InPlaceReducer; steady state is allocation-free.
//
//spardl:hotpath
func (t *TopkDSA) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	t.begin(grad)
	p, me := ep.P(), ep.Rank()

	// LRES, as TopkA: what the local selection leaves behind is the residual.
	local := t.ar.TopKDense(t.residual, 0, t.n, t.k)
	ChargeScan(ep, t.n)
	local.ClearInDense(t.residual)

	// Reduce-scatter by direct sends: piece j of my selection goes straight
	// to worker j.
	pieces := t.ar.Split(t.part, local)
	for j := 0; j < p; j++ {
		if j != me {
			ep.Send(j, t.ar.Clone(pieces[j]), t.tx.ChunkBytes(pieces[j]))
		}
	}
	got := t.ar.Chunks(p)
	got = append(got, pieces[me])
	total := 0
	for j := 0; j < p; j++ {
		if j == me {
			continue
		}
		in, _ := ep.Recv(j)
		c := in.(*sparse.Chunk)
		total += c.Len()
		got = append(got, c)
	}
	ChargeMerge(ep, total)
	mine := t.ar.MergeAddAll(got)

	// All-gather the uneven reduced blocks (SGA allowed; dense switch per
	// block caps the wire size).
	items := collective.BruckAllGatherAlloc(ep, t.world, me, &dsaBlock{block: me, c: mine}, t.size, t.ar)
	chunks := t.ar.Chunks(len(items))
	total = 0
	for _, it := range items {
		c := it.(*dsaBlock).c
		chunks = append(chunks, c)
		total += c.Len()
	}
	ChargeMerge(ep, total)
	scatterInto(out, chunks)
}
