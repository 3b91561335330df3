package sparsecoll

import (
	"fmt"

	"spardl/internal/comm"
	"spardl/internal/sparse"
)

// GTopk is the global top-k sparse all-reduce of Shi et al. [ICDCS'19]:
// a binary reduction tree carries local top-k sets toward rank 0, selecting
// top-k after every merge so messages never grow; a broadcast tree then
// distributes the exact global top-k. Both trees take log₂P rounds of 2k
// wire elements, giving 2log₂P·α + 4log₂P·kβ (Table I) — bandwidth grows
// with log P because tree-internal workers re-transmit whole selections.
// gTopk is defined only for power-of-two P (the paper evaluates it solely
// at P=8, Fig. 12).
//
// Residuals: local + end-procedure (PRES) — a worker zeroes its residual
// only at indices it both selected locally and that survived into the
// global top-k; contributions discarded inside the tree (in-procedure) are
// lost, which is exactly the deficiency SparDL's GRES addresses.
type GTopk struct{ base }

// GTopkValid reports whether a P-worker gTopk is constructible: the binary
// reduction/broadcast trees are defined only for power-of-two P. Harnesses
// call this up front so a non-pow2 configuration is skipped (or rejected
// with a clean error) instead of panicking mid-run and poisoning the
// fabric under every worker.
func GTopkValid(p int) error {
	if p < 1 || p&(p-1) != 0 {
		return fmt.Errorf("sparsecoll: gTopk requires power-of-two workers, got %d", p)
	}
	return nil
}

// NewGTopkErr builds the gTopk reducer for one worker, returning an error
// when P is outside the algorithm's power-of-two domain — the validated
// construction path, mirroring core.New.
func NewGTopkErr(p, rank, n, k int) (Reducer, error) {
	if err := GTopkValid(p); err != nil {
		return nil, err
	}
	return &GTopk{newBase("gTopk", n, k)}, nil
}

// NewGTopk is the Factory-shaped constructor: it panics on non-power-of-two
// P (a configuration bug surfaced at construction, mirroring
// core.NewFactory). Callers with runtime-chosen P should check GTopkValid
// first or use NewGTopkErr.
func NewGTopk(p, rank, n, k int) Reducer {
	g, err := NewGTopkErr(p, rank, n, k)
	if err != nil {
		panic(err)
	}
	return g
}

// ReduceInto implements Reducer; steady state is allocation-free.
func (g *GTopk) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	g.ar.Reset()
	p, me := ep.P(), ep.Rank()

	// The gradient onto the stored residual, in the selection's pass.
	local := g.ar.TopKDenseAdd(g.residual, grad, 0, g.n, g.k)
	ChargeScan(ep, g.n)

	// Reduction tree: at level dist, workers whose rank is an odd multiple
	// of dist send their running selection to rank-dist and drop out.
	cur := local
	sentAt := 0 // tree level at which this worker went passive (0 = never)
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
		// local survives for the residual bookkeeping below; intermediate
		// selections are local-only (a worker that received at this level
		// did not send) and can be recycled as soon as they are merged.
		if cur != local {
			g.ar.Recycle(cur)
		}
		kept, dropped := g.ar.TopKChunk(merged, g.k)
		ChargeScan(ep, merged.Len())
		g.ar.Recycle(merged)
		g.ar.Recycle(dropped)
		cur = kept
	}

	// Broadcast tree (reverse): rank 0 holds the global top-k; each worker
	// that received in the reduction phase now sends downward.
	var global *sparse.Chunk
	if sentAt == 0 {
		global = cur // rank 0
	} else {
		in, _ := ep.Recv(me - sentAt)
		global = in.(*sparse.Chunk)
	}
	start := sentAt / 2
	if sentAt == 0 {
		start = p / 2
	}
	if start >= 1 {
		bytes := g.tx.ChunkBytes(global) // size once, reuse for every child
		for dist := start; dist >= 1; dist /= 2 {
			ep.Send(me+dist, global, bytes)
		}
	}

	// PRES residual: zero only where our local selection made the global
	// set; everything else (including in-tree discards) stays in the
	// vector. The global set is sorted in either representation, so
	// ContainsIdx is a range check (dense) or binary search (COO) per
	// selected index.
	for _, idx := range local.Idx {
		if global.ContainsIdx(idx) {
			g.residual[idx] = 0
		}
	}

	for i := range out {
		out[i] = 0
	}
	global.AddToDense(out)
}
