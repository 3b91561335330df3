package sparsecoll

import (
	"math"

	"spardl/internal/collective"
	"spardl/internal/comm"
	"spardl/internal/sparse"
)

// OkTopk re-implements the state-of-the-art sparse all-reduce of Li &
// Hoefler [PPoPP'22] from its published description. Per iteration:
//
//  1. Each worker selects local entries by *threshold pruning* — an
//     adaptive estimate of the global k-th largest magnitude, so the
//     selected count only approximates k (the instability the SparDL paper
//     criticizes in Section I-B).
//  2. Reduce-scatter by direct sends of per-block pieces to block owners
//     (P-1 messages → the linear latency term in 2(P+logP)α).
//  3. The owner merges its pieces and prunes again with the threshold.
//  4. Extra balancing traffic: workers all-gather their block counts, and
//     oversized blocks ship overflow entries to the successor worker before
//     the final all-gather — the "several extra communication operations to
//     balance the uneven distribution" of Section I-B. These push traffic
//     above Table I's 2(P-1)/P·kβ bound when selections are uneven across
//     blocks; on case 1's gradient table1 measures 5347/5443/5795 elements
//     at P = 12/14/16, above the 6(P-1)/P·kβ bound (4636/4697/4742).
//  5. Bruck all-gather of the (uneven) reduced blocks.
//
// Residuals: local + end-procedure (PRES), as in the original.
type OkTopk struct {
	base
	part  *sparse.Partition
	world []int
	// target is the adaptive local selection size: the threshold is set at
	// the target-th largest local magnitude, and target is steered so the
	// global selected count tracks k. Controlling the quantile *index*
	// rather than the threshold value keeps the controller stable even
	// when residual feedback piles mass right below the cut.
	target float64
	size   collective.SizeFunc // itemBytes, bound once so the hot path builds no closure
}

// overSelect models the conservative threshold choice of the real system:
// because threshold pruning cannot hit k exactly and under-selection would
// hurt convergence, the original sets its threshold low enough to cover
// the top k until it next re-estimates it, over-selecting on average. This
// re-implementation re-estimates the threshold on every call and keeps the
// over-selection.
// This is precisely the behaviour the SparDL paper criticizes ("the
// bandwidth cost of Ok-Topk may be higher than 6(P-1)/P·kβ"); with this
// value table1 measures the volume above that bound on case 1's gradient
// (see step 4 above).
const overSelect = 1.8

// NewOkTopk builds the Ok-Topk reducer for one worker of a P-worker
// cluster.
func NewOkTopk(p, rank, n, k int) Reducer {
	t := overSelect * float64(k) / float64(p)
	if t < 1 {
		t = 1
	}
	o := &OkTopk{base: newBase("OkTopk", n, k), part: sparse.NewPartition(n, p),
		world: collective.WorldRanks(p), target: t}
	o.size = o.itemBytes
	return o
}

// itemBytes charges an item of the final all-gather — a worker's reduced
// block plus any overflow chunk the balancing step shifted to it, as a
// []*sparse.Chunk — the sum of its chunks: a function of the chunks alone,
// so the owner and every forwarding hop charge the same.
func (o *OkTopk) itemBytes(it any) int { return o.tx.SliceBytes(it.([]*sparse.Chunk)) }

// countBytes sizes the 4-byte per-worker selection counts of the
// balancing all-gather. (A capture-free closure literal would compile to
// the same static funcval; the name just reads better at the call site.)
func countBytes(any) int { return 4 }

// ReduceInto implements Reducer; steady state is allocation-free.
func (o *OkTopk) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	o.begin(grad)
	p, me := ep.P(), ep.Rank()

	// Estimate the pruning threshold at the target-th largest local
	// magnitude: under near-iid gradients the union of per-worker
	// selections of size ≈k/P approximates the global top-k; the adaptive
	// target absorbs inter-worker overlap and residual-feedback drift.
	thr := sparse.KthLargestAbs(o.residual, int(o.target+0.5))
	ChargeScan(ep, o.n)
	if thr <= 0 {
		thr = 1e-12
	}

	// 1. Threshold pruning (count is data-dependent, not exactly k).
	local := o.ar.ThresholdDense(o.residual, 0, o.n, thr)
	ChargeScan(ep, o.n)

	// 2. Direct-send reduce-scatter.
	pieces := o.ar.Split(o.part, local)
	for j := 0; j < p; j++ {
		if j != me {
			ep.Send(j, o.ar.Clone(pieces[j]), o.tx.ChunkBytes(pieces[j]))
		}
	}
	got := o.ar.Chunks(p)
	got = append(got, pieces[me])
	received := 0
	for j := 0; j < p; j++ {
		if j == me {
			continue
		}
		in, _ := ep.Recv(j)
		c := in.(*sparse.Chunk)
		received += c.Len()
		got = append(got, c)
	}
	ChargeMerge(ep, received)
	merged := o.ar.MergeAddAll(got)

	// 3. Prune the merged block with the same threshold. Entries are
	// dropped as whole sums, so every contributor retains its own share in
	// its residual snapshot (end-procedure collection).
	mine, pruned := o.ar.ThresholdChunk(merged, thr)
	ChargeScan(ep, mine.Len())
	o.ar.Recycle(merged)
	o.ar.Recycle(pruned)

	// 4. Balancing traffic: all-gather block counts, then shift overflow
	// from oversized blocks to the successor worker. All workers see the
	// same counts, so sender/receiver decisions agree without extra sync.
	world := o.world
	// The balancing count goes into the all-gather as a boxed int; counts
	// below 256 come from the runtime's static box cache and do not
	// allocate.
	countItems := collective.BruckAllGatherAlloc(ep, world, me, mine.Len(), countBytes, o.ar)
	if p > 1 {
		total := 0
		for _, it := range countItems {
			total += it.(int)
		}
		mean := total / p
		limit := 2*mean + 1
		prev := (me + p - 1) % p
		myOverflow := countItems[me].(int) > limit
		prevOverflow := countItems[prev].(int) > limit
		own := o.ar.Chunks(2)
		if myOverflow {
			// Keep the `limit` largest entries, ship the rest onward.
			kept, extra := o.ar.TopKChunk(mine, limit)
			ChargeScan(ep, mine.Len())
			own = append(own, kept)
			ep.Send((me+1)%p, extra, o.tx.ChunkBytes(extra))
		} else {
			own = append(own, mine)
		}
		if prevOverflow {
			// The predecessor's overflow joins this worker's item as it is.
			in, _ := ep.Recv(prev)
			own = append(own, in.(*sparse.Chunk))
		}

		// 5. All-gather the (re-balanced) blocks.
		items := collective.BruckAllGatherAlloc(ep, world, me, own, o.size, o.ar)
		all := o.ar.Chunks(2 * len(items))
		for _, it := range items {
			all = append(all, it.([]*sparse.Chunk)...)
		}
		mergedTotal := 0
		for _, c := range all {
			mergedTotal += c.Len()
		}
		ChargeMerge(ep, mergedTotal)
		scatterInto(out, all)
		o.finish(local, out, mergedTotal)
		return
	}

	for i := range out {
		out[i] = 0
	}
	mine.AddToDense(out)
	o.finish(local, out, mine.Len())
}

// finish updates the PRES residual and adapts the selection target toward a
// global selection count of k. The vector still holds G_copy; a locally
// selected entry leaves it only if its index made the global result.
func (o *OkTopk) finish(local *sparse.Chunk, out []float32, selected int) {
	for _, idx := range local.Idx {
		if out[idx] != 0 {
			o.residual[idx] = 0
		}
	}
	// Steer the local selection size so the global count tracks the
	// conservative target overSelect·k. The damped exponent avoids
	// oscillation.
	if selected == 0 {
		o.target *= 2
	} else {
		o.target *= math.Pow(overSelect*float64(o.k)/float64(selected), 0.5)
	}
	const pMin = 1.0
	if o.target < pMin {
		o.target = pMin
	}
	if cap := 4 * float64(o.k); o.target > cap {
		o.target = cap
	}
}
