package sparsecoll

import (
	"fmt"
	"math"
	"testing"

	"spardl/internal/collective"
	"spardl/internal/comm"
	"spardl/internal/simnet"
	"spardl/internal/sparse"
)

// refVecs is the dense-vector bookkeeping the baselines had before they
// worked in place, kept as the test reference: the residual-augmented
// gradient lives in acc, a copy of it (Algorithm 1's G_copy) in snap, and
// the stored residual in res, copied out of them at the end of every
// synchronization. The ref* reducers below run the same schedule on the
// embedded reducer's partition, arena, accounting and controller state, so
// reference and product differ in this bookkeeping and nothing else.
type refVecs struct{ acc, snap, res []float32 }

func newRefVecs(n int) refVecs {
	return refVecs{make([]float32, n), make([]float32, n), make([]float32, n)}
}

func (r *refVecs) Residual() []float32           { return r.res }
func (r *refVecs) RestoreResidual(res []float32) { copy(r.res, res) }

func (r *refVecs) accumulate(ar *sparse.Arena, grad []float32) {
	ar.Reset()
	for i, g := range grad {
		v := g + r.res[i]
		r.acc[i] = v
		r.snap[i] = v
	}
}

type refTopkA struct {
	*TopkA
	refVecs
}

func (r *refTopkA) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	t := r.TopkA
	r.accumulate(t.ar, grad)
	local := t.ar.TopKDense(r.acc, 0, t.n, t.k)
	ChargeScan(ep, t.n)
	copy(r.res, r.acc)
	for _, idx := range local.Idx {
		r.res[idx] = 0
	}
	items := collective.BruckAllGatherAlloc(ep, t.world, ep.Rank(), local, t.tx.ItemBytes, t.ar)
	var chunks []*sparse.Chunk
	total := 0
	for _, it := range items {
		chunks = append(chunks, it.(*sparse.Chunk))
		total += it.(*sparse.Chunk).Len()
	}
	ChargeMerge(ep, total)
	scatterInto(out, chunks)
}

type refTopkDSA struct {
	*TopkDSA
	refVecs
}

func (r *refTopkDSA) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	t := r.TopkDSA
	r.accumulate(t.ar, grad)
	p, me := ep.P(), ep.Rank()
	local := t.ar.TopKDense(r.acc, 0, t.n, t.k)
	ChargeScan(ep, t.n)
	copy(r.res, r.acc)
	for _, idx := range local.Idx {
		r.res[idx] = 0
	}
	pieces := t.ar.Split(t.part, local)
	for j := 0; j < p; j++ {
		if j != me {
			ep.Send(j, t.ar.Clone(pieces[j]), t.tx.ChunkBytes(pieces[j]))
		}
	}
	got := []*sparse.Chunk{pieces[me]}
	total := 0
	for j := 0; j < p; j++ {
		if j != me {
			in, _ := ep.Recv(j)
			got = append(got, in.(*sparse.Chunk))
			total += in.(*sparse.Chunk).Len()
		}
	}
	ChargeMerge(ep, total)
	mine := t.ar.MergeAddAll(got)
	items := collective.BruckAllGatherAlloc(ep, t.world, me, &dsaBlock{block: me, c: mine}, t.size, t.ar)
	var chunks []*sparse.Chunk
	total = 0
	for _, it := range items {
		chunks = append(chunks, it.(*dsaBlock).c)
		total += it.(*dsaBlock).c.Len()
	}
	ChargeMerge(ep, total)
	scatterInto(out, chunks)
}

type refGTopk struct {
	*GTopk
	refVecs
}

func (r *refGTopk) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	g := r.GTopk
	r.accumulate(g.ar, grad)
	p, me := ep.P(), ep.Rank()
	local := g.ar.TopKDense(r.acc, 0, g.n, g.k)
	ChargeScan(ep, g.n)
	cur, sentAt := local, 0
	for dist := 1; dist < p; dist *= 2 {
		if me%(2*dist) == dist {
			ep.Send(me-dist, cur, g.tx.ChunkBytes(cur))
			sentAt = dist
			break
		}
		in, _ := ep.Recv(me + dist)
		got := in.(*sparse.Chunk)
		ChargeMerge(ep, got.Len()+cur.Len())
		merged := g.ar.MergeAdd(cur, got)
		cur, _ = g.ar.TopKChunk(merged, g.k)
		ChargeScan(ep, merged.Len())
	}
	global, start := cur, p/2
	if sentAt != 0 {
		in, _ := ep.Recv(me - sentAt)
		global, start = in.(*sparse.Chunk), sentAt/2
	}
	for dist := start; dist >= 1; dist /= 2 {
		ep.Send(me+dist, global, g.tx.ChunkBytes(global))
	}
	copy(r.res, r.acc)
	for _, idx := range local.Idx {
		if global.ContainsIdx(idx) {
			r.res[idx] = 0
		}
	}
	clear(out)
	global.AddToDense(out)
}

type refOkTopk struct {
	*OkTopk
	refVecs
}

func (r *refOkTopk) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	o := r.OkTopk
	r.accumulate(o.ar, grad)
	p, me := ep.P(), ep.Rank()
	o.iter++
	thr := sparse.KthLargestAbs(r.acc, int(o.target+0.5))
	ChargeScan(ep, o.n)
	if thr <= 0 {
		thr = 1e-12
	}
	local := o.ar.ThresholdDense(r.acc, 0, o.n, thr)
	ChargeScan(ep, o.n)
	pieces := o.ar.Split(o.part, local)
	for j := 0; j < p; j++ {
		if j != me {
			ep.Send(j, o.ar.Clone(pieces[j]), o.tx.ChunkBytes(pieces[j]))
		}
	}
	got := []*sparse.Chunk{pieces[me]}
	received := 0
	for j := 0; j < p; j++ {
		if j != me {
			in, _ := ep.Recv(j)
			got = append(got, in.(*sparse.Chunk))
			received += in.(*sparse.Chunk).Len()
		}
	}
	ChargeMerge(ep, received)
	mine, _ := o.ar.ThresholdChunk(o.ar.MergeAddAll(got), thr)
	ChargeScan(ep, mine.Len())

	countItems := collective.BruckAllGatherAlloc(ep, o.world, me, mine.Len(), countBytes, o.ar)
	total := 0
	for _, it := range countItems {
		total += it.(int)
	}
	limit := 2*(total/p) + 1
	prev := (me + p - 1) % p
	own := &okItem{}
	if countItems[me].(int) > limit {
		kept, extra := o.ar.TopKChunk(mine, limit)
		ChargeScan(ep, mine.Len())
		own.chunks = append(own.chunks, kept)
		ep.Send((me+1)%p, extra, o.tx.ChunkBytes(extra))
	} else {
		own.chunks = append(own.chunks, mine)
	}
	if countItems[prev].(int) > limit {
		in, _ := ep.Recv(prev)
		own.chunks = append(own.chunks, in.(*sparse.Chunk))
	}
	var all []*sparse.Chunk
	for _, it := range collective.BruckAllGatherAlloc(ep, o.world, me, own, o.size, o.ar) {
		all = append(all, it.(*okItem).chunks...)
	}
	selected := 0
	for _, c := range all {
		selected += c.Len()
	}
	ChargeMerge(ep, selected)
	scatterInto(out, all)

	// The residual as it was computed before: G_copy, cleared wherever a
	// non-zero output index is one this worker selected — found by scanning
	// the whole output.
	copy(r.res, r.snap)
	for i, v := range out {
		if v != 0 && local.ContainsIdx(int32(i)) {
			r.res[i] = 0
		}
	}
	// The embedded reducer's finish steers its selection target; handed an
	// empty selection it touches no residual.
	o.finish(&sparse.Chunk{}, out, selected)
}

// residualReducer is what the reference comparison drives: every baseline
// and its reference satisfy it.
type residualReducer interface {
	ReduceInto(ep comm.Endpoint, grad, out []float32)
	ResidualRestorer
}

// TestBaselinesMatchSnapshotReference: each baseline, working in place on
// its one vector, produces bit for bit the outputs and stored residuals of
// the accumulate/snapshot bookkeeping it replaced, and charges the virtual
// clock and the wire identically — over several iterations, ragged and
// prime worker counts, the configuration that forces the mid-collective
// sparse→dense switch, and a RestoreResidual in the middle of the run.
func TestBaselinesMatchSnapshotReference(t *testing.T) {
	const iters, restoreAt = 5, 3
	const n, k = 2000, 60
	const flipN, flipK = 1024, 512 // fan-in density ≈ P·k/n ≥ 2 → dense switch
	type build func(p, rank, n, k int) residualReducer
	all, pow2 := []int{4, 6, 7, 8}, []int{4, 8}
	methods := []struct {
		name               string
		ps                 []int
		product, reference build
	}{
		{"TopkA", all,
			func(p, rank, n, k int) residualReducer { return NewTopkA(p, rank, n, k).(*TopkA) },
			func(p, rank, n, k int) residualReducer {
				return &refTopkA{NewTopkA(p, rank, n, k).(*TopkA), newRefVecs(n)}
			}},
		{"TopkDSA", all,
			func(p, rank, n, k int) residualReducer { return NewTopkDSA(p, rank, n, k).(*TopkDSA) },
			func(p, rank, n, k int) residualReducer {
				return &refTopkDSA{NewTopkDSA(p, rank, n, k).(*TopkDSA), newRefVecs(n)}
			}},
		{"gTopk", pow2,
			func(p, rank, n, k int) residualReducer { return NewGTopk(p, rank, n, k).(*GTopk) },
			func(p, rank, n, k int) residualReducer {
				return &refGTopk{NewGTopk(p, rank, n, k).(*GTopk), newRefVecs(n)}
			}},
		{"OkTopk", all,
			func(p, rank, n, k int) residualReducer { return NewOkTopk(p, rank, n, k).(*OkTopk) },
			func(p, rank, n, k int) residualReducer {
				return &refOkTopk{NewOkTopk(p, rank, n, k).(*OkTopk), newRefVecs(n)}
			}},
	}
	for _, m := range methods {
		for _, p := range m.ps {
			for _, size := range [][2]int{{n, k}, {flipN, flipK}} {
				n, k := size[0], size[1]
				t.Run(fmt.Sprintf("%s/P=%d/n=%d", m.name, p, n), func(t *testing.T) {
					grads := makeGradients(iters, p, n, int64(31*p+n))
					run := func(b build) (outs, residuals [][][]float32, rep *simnet.Report) {
						outs, residuals = make([][][]float32, iters), make([][][]float32, iters)
						for it := range outs {
							outs[it], residuals[it] = make([][]float32, p), make([][]float32, p)
						}
						rep = simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
							r := b(p, rank, n, k)
							for it := 0; it < iters; it++ {
								if it == restoreAt {
									// An elastic restore: back to what was stored
									// after the first synchronization.
									r.RestoreResidual(residuals[0][rank])
								}
								outs[it][rank] = make([]float32, n)
								r.ReduceInto(ep, grads[it][rank], outs[it][rank])
								residuals[it][rank] = append([]float32(nil), r.Residual()...)
								ep.SyncClock()
							}
						})
						return outs, residuals, rep
					}
					gotOut, gotRes, gotRep := run(m.product)
					wantOut, wantRes, wantRep := run(m.reference)
					for it := 0; it < iters; it++ {
						for rank := 0; rank < p; rank++ {
							if i := firstBitDiff(gotOut[it][rank], wantOut[it][rank]); i >= 0 {
								t.Fatalf("iter %d rank %d: out[%d] = %g, reference %g", it, rank, i, gotOut[it][rank][i], wantOut[it][rank][i])
							}
							if i := firstBitDiff(gotRes[it][rank], wantRes[it][rank]); i >= 0 {
								t.Fatalf("iter %d rank %d: residual[%d] = %g, reference %g", it, rank, i, gotRes[it][rank][i], wantRes[it][rank][i])
							}
						}
					}
					if gotRep.Time != wantRep.Time || gotRep.TotalBytesRecv() != wantRep.TotalBytesRecv() {
						t.Fatalf("cost moved: clock %v bytes %d, reference clock %v bytes %d",
							gotRep.Time, gotRep.TotalBytesRecv(), wantRep.Time, wantRep.TotalBytesRecv())
					}
				})
			}
		}
	}
}

func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}
