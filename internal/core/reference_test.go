package core

import (
	"fmt"
	"math"
	"testing"

	"spardl/internal/collective"
	"spardl/internal/comm"
	"spardl/internal/livenet"
	"spardl/internal/simnet"
	"spardl/internal/sparse"
	"spardl/internal/sparsecoll"
)

// refSparDL is the residual bookkeeping SparDL had before it worked in
// place, kept as the test reference: the residual-augmented gradient lives
// in acc, Algorithm 1's G_copy is stored in snapshot, every discard is
// accumulated into a separate ξ vector stepRes, and the new residual is
// copied out of the two. It runs the same schedule on the embedded
// reducer's partition, bags, transport and arena, so the two differ in the
// dense-vector bookkeeping and nothing else. densified counts the merges
// whose result switched to a dense block; the switch is a pure function of
// the merged entry sets, so SparDL's merges switch at the same points.
type refSparDL struct {
	*SparDL
	acc, snapshot, stepRes, residual []float32
	densified                        int
}

func newRef(p, rank, n, k int, opts Options) *refSparDL {
	s, err := New(p, rank, n, k, opts)
	if err != nil {
		panic(err)
	}
	return &refSparDL{
		SparDL: s,
		acc:    make([]float32, n), snapshot: make([]float32, n),
		stepRes: make([]float32, n), residual: make([]float32, n),
	}
}

func (r *refSparDL) Residual() []float32 { return r.residual }

func (r *refSparDL) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	s := r.SparDL
	s.ar.Reset()
	for i, g := range grad {
		v := g + r.residual[i]
		r.acc[i] = v
		r.snapshot[i] = v
		r.stepRes[i] = 0
	}
	sparsecoll.ChargeScan(ep, s.n)

	var localSel []int32
	var reserved *sparse.Chunk
	switch {
	case s.m == 1:
		reserved = r.sparsify(ep, 0, s.n, &localSel)
	case s.opts.Eager:
		reserved = r.srsEager(ep, &localSel)
	default:
		reserved = r.srs(ep, &localSel)
	}
	if s.d > 1 {
		if s.variant == RSAG {
			reserved = r.rsag(ep, reserved)
		} else {
			reserved = r.bsag(ep, reserved)
		}
	}

	finalChunks := []*sparse.Chunk{reserved}
	if s.m > 1 {
		items := collective.BruckAllGatherAlloc(ep, s.teamRanks, s.pos, reserved, s.tx.ItemBytes, s.ar)
		finalChunks = finalChunks[:0]
		total := 0
		for _, it := range items {
			c := it.(*sparse.Chunk)
			finalChunks = append(finalChunks, c)
			total += c.Len()
		}
		sparsecoll.ChargeMerge(ep, total)
	}
	clear(out)
	for _, c := range finalChunks {
		c.AddToDense(out)
	}

	copy(r.residual, r.snapshot)
	switch s.opts.Residual {
	case GRES:
		for _, c := range finalChunks {
			for i := 0; i < c.Len(); i++ {
				r.residual[c.IdxAt(i)] = r.stepRes[c.IdxAt(i)]
			}
		}
	case PRES:
		for _, c := range finalChunks {
			for i := 0; i < c.Len(); i++ {
				r.residual[c.IdxAt(i)] = 0
			}
		}
	case LRES:
		for _, idx := range localSel {
			r.residual[idx] = 0
		}
	}
	sparsecoll.ChargeScan(ep, s.n)
}

// count tallies a merge result that took the dense representation.
func (r *refSparDL) count(merged *sparse.Chunk) *sparse.Chunk {
	if merged.IsDense() {
		r.densified++
	}
	return merged
}

func (r *refSparDL) sparsify(ep comm.Endpoint, lo, hi int, localSel *[]int32) *sparse.Chunk {
	kept := r.ar.TopKDense(r.acc, lo, hi, r.blockK)
	sparsecoll.ChargeScan(ep, hi-lo)
	for i := lo; i < hi; i++ {
		r.stepRes[i] += r.acc[i]
	}
	for j, idx := range kept.Idx {
		r.stepRes[idx] -= kept.Val[j]
	}
	*localSel = append(*localSel, kept.Idx...)
	return kept
}

func (r *refSparDL) drop(dropped *sparse.Chunk, share float32) {
	for i, v := range dropped.Val {
		r.stepRes[dropped.IdxAt(i)] += v * share
	}
}

func (r *refSparDL) srs(ep comm.Endpoint, localSel *[]int32) *sparse.Chunk {
	s := r.SparDL
	m, pos, l := s.m, s.pos, len(s.bags)
	for i := 1; i <= l; i++ {
		dist := 1 << (l - i)
		var payload []*sparse.Chunk
		for _, off := range s.bags[l-i] {
			lo, hi := s.part.Bounds((pos + off) % m)
			if kept := r.sparsify(ep, lo, hi, localSel); kept.Len() > 0 {
				payload = append(payload, kept)
			}
		}
		pk, bytes := s.tx.PackSlice(payload)
		ep.Send(s.teamRanks[(pos+dist)%m], pk, bytes)
		in, _ := ep.Recv(s.teamRanks[(pos-dist+m)%m])
		for _, c := range in.([]*sparse.Chunk) {
			sparsecoll.ChargeMerge(ep, c.Len())
			c.AddToDense(r.acc)
		}
	}
	lo, hi := s.part.Bounds(pos)
	return r.sparsify(ep, lo, hi, localSel)
}

func (r *refSparDL) srsEager(ep comm.Endpoint, localSel *[]int32) *sparse.Chunk {
	s := r.SparDL
	m, pos, l := s.m, s.pos, len(s.bags)
	blocks := make([]*sparse.Chunk, m)
	for b := range blocks {
		lo, hi := s.part.Bounds(b)
		blocks[b] = r.sparsify(ep, lo, hi, localSel)
	}
	for i := 1; i <= l; i++ {
		dist := 1 << (l - i)
		var payload []*sparse.Chunk
		for _, off := range s.bags[l-i] {
			b := (pos + off) % m
			if blocks[b].Len() > 0 {
				payload = append(payload, blocks[b])
			}
			blocks[b] = nil
		}
		pk, bytes := s.tx.PackSlice(payload)
		ep.Send(s.teamRanks[(pos+dist)%m], pk, bytes)
		in, _ := ep.Recv(s.teamRanks[(pos-dist+m)%m])
		for _, c := range in.([]*sparse.Chunk) {
			b := s.part.BlockOf(c.IdxAt(0))
			sparsecoll.ChargeMerge(ep, c.Len()+blocks[b].Len())
			merged := r.count(s.ar.MergeAdd(blocks[b], c))
			kept, dropped := s.ar.TopKChunk(merged, s.blockK)
			sparsecoll.ChargeScan(ep, merged.Len())
			r.drop(dropped, 1)
			blocks[b] = kept
		}
	}
	return blocks[pos]
}

func (r *refSparDL) rsag(ep comm.Endpoint, mine *sparse.Chunk) *sparse.Chunk {
	s := r.SparDL
	share := float32(0.5)
	for dist := 1; dist < s.d; dist *= 2 {
		in, _ := ep.SendRecv(s.groupRanks[s.team^dist], mine, s.tx.ChunkBytes(mine))
		got := in.(*sparse.Chunk)
		sparsecoll.ChargeMerge(ep, got.Len()+mine.Len())
		merged := r.count(s.ar.MergeAdd(mine, got))
		kept, dropped := s.ar.TopKChunk(merged, s.blockK)
		sparsecoll.ChargeScan(ep, merged.Len())
		r.drop(dropped, share)
		mine = kept
		share /= 2
	}
	return mine
}

func (r *refSparDL) bsag(ep comm.Endpoint, mine *sparse.Chunk) *sparse.Chunk {
	s := r.SparDL
	sel, dropped := s.ar.TopKChunk(mine, s.hctl.H())
	sparsecoll.ChargeScan(ep, mine.Len())
	r.drop(dropped, 1)
	items := collective.BruckAllGatherAlloc(ep, s.groupRanks, s.team, sel, s.tx.ItemBytes, s.ar)
	var chunks []*sparse.Chunk
	total := 0
	for _, it := range items {
		c := it.(*sparse.Chunk)
		chunks = append(chunks, c)
		total += c.Len()
	}
	sparsecoll.ChargeMerge(ep, total)
	merged := r.count(s.ar.MergeAddAll(chunks))
	kept, dropped2 := s.ar.TopKChunk(merged, s.blockK)
	sparsecoll.ChargeScan(ep, merged.Len())
	r.drop(dropped2, 1/float32(s.d))
	s.hctl.Observe(merged.Len())
	return kept
}

// residualReducer is what the reference comparison drives: SparDL and its
// reference both satisfy it.
type residualReducer interface {
	ReduceInto(ep comm.Endpoint, grad, out []float32)
	Residual() []float32
}

// runResiduals runs iters synchronizations on simnet and returns every
// rank's output and residual after each one, plus the run's report.
func runResiduals(p, n, iters int, grads [][][]float32, build func(rank int) residualReducer) (outs, residuals [][][]float32, rep *simnet.Report) {
	return runResidualsOn(simnet.Backend(unit), p, n, iters, grads, build)
}

func runResidualsOn(b comm.Backend, p, n, iters int, grads [][][]float32, build func(rank int) residualReducer) (outs, residuals [][][]float32, rep *comm.Report) {
	outs, residuals = make([][][]float32, iters), make([][][]float32, iters)
	for it := range outs {
		outs[it], residuals[it] = make([][]float32, p), make([][]float32, p)
	}
	rep = b.Run(p, func(rank int, ep comm.Endpoint) {
		r := build(rank)
		for it := 0; it < iters; it++ {
			out := make([]float32, n)
			r.ReduceInto(ep, grads[it][rank], out)
			outs[it][rank] = out
			residuals[it][rank] = append([]float32(nil), r.Residual()...)
			ep.SyncClock()
		}
	})
	return outs, residuals, rep
}

func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestResidualMatchesSnapshotReference: the in-place residual with its undo
// log stores, bit for bit, what the snapshot/ξ-vector bookkeeping stored —
// on every SRS and SAG variant, every residual mode, dense received chunks
// (the range form of an undo record), densified merges and a prime worker
// count — and charges the virtual clock identically.
func TestResidualMatchesSnapshotReference(t *testing.T) {
	const iters = 3
	cases := []struct {
		p, n, k int
		opts    Options
		live    bool // run on livenet: no virtual clock to compare
		densify bool // some merge must switch to a dense block
	}{
		{p: 6, n: 600, k: 60, opts: Options{}},
		{p: 7, n: 701, k: 70, opts: Options{}}, // prime P, ragged blocks
		{p: 6, n: 600, k: 60, opts: Options{Eager: true}},
		{p: 8, n: 512, k: 64, opts: Options{Teams: 2}},              // R-SAG
		{p: 8, n: 512, k: 64, opts: Options{Teams: 4, Eager: true}}, // R-SAG, two levels
		{p: 6, n: 600, k: 60, opts: Options{Teams: 3}},              // B-SAG
		{p: 4, n: 256, k: 32, opts: Options{Teams: 4}},              // m = 1
		{p: 6, n: 600, k: 60, opts: Options{Residual: PRES}},
		{p: 6, n: 600, k: 60, opts: Options{Residual: LRES}},
		{p: 6, n: 600, k: 60, opts: Options{Teams: 3, Residual: LRES}},
		// Every block fully selected, on a byte backend: the codec carries
		// a full-cover chunk as a dense block, so received chunks arrive
		// dense (TestDenseReceivedChunksTakeRangeUndo pins that).
		{p: 4, n: 256, k: 256, opts: Options{}, live: true},
		// Half of every block selected: the eager SRS and R-SAG merges
		// cross the density threshold and switch to dense blocks.
		{p: 4, n: 256, k: 128, opts: Options{Eager: true}, densify: true},
		{p: 4, n: 256, k: 128, opts: Options{Teams: 2, Residual: PRES}, densify: true},
	}
	for _, c := range cases {
		name := fmt.Sprintf("p=%d/n=%d/k=%d/%+v", c.p, c.n, c.k, c.opts)
		t.Run(name, func(t *testing.T) {
			grads := makeGradients(iters, c.p, c.n, 11)
			b := simnet.Backend(unit)
			if c.live {
				b = livenet.NewBackend()
			}
			gotOut, gotRes, gotRep := runResidualsOn(b, c.p, c.n, iters, grads, func(rank int) residualReducer {
				s, err := New(c.p, rank, c.n, c.k, c.opts)
				if err != nil {
					panic(err)
				}
				return s
			})
			refs := make([]*refSparDL, c.p)
			wantOut, wantRes, wantRep := runResidualsOn(b, c.p, c.n, iters, grads, func(rank int) residualReducer {
				refs[rank] = newRef(c.p, rank, c.n, c.k, c.opts)
				return refs[rank]
			})
			densified := 0
			for _, r := range refs {
				densified += r.densified
			}
			if c.densify && densified == 0 {
				t.Fatal("no merge switched to a dense block")
			}
			for it := 0; it < iters; it++ {
				for rank := 0; rank < c.p; rank++ {
					if i := firstBitDiff(gotOut[it][rank], wantOut[it][rank]); i >= 0 {
						t.Fatalf("iter %d rank %d: out[%d] = %g, reference %g", it, rank, i, gotOut[it][rank][i], wantOut[it][rank][i])
					}
					if i := firstBitDiff(gotRes[it][rank], wantRes[it][rank]); i >= 0 {
						t.Fatalf("iter %d rank %d: residual[%d] = %g, reference %g", it, rank, i, gotRes[it][rank][i], wantRes[it][rank][i])
					}
				}
			}
			if !c.live && gotRep.Time != wantRep.Time {
				t.Fatalf("virtual clock moved: %v, reference %v", gotRep.Time, wantRep.Time)
			}
		})
	}
}

// TestDenseReceivedChunksTakeRangeUndo pins that the configuration above
// really drives dense chunks through the undo log: without them the range
// form of Gather/SetInDense would go untested.
func TestDenseReceivedChunksTakeRangeUndo(t *testing.T) {
	const p, n, k = 4, 256, 256
	grads := makeGradients(1, p, n, 11)
	sawDense := false
	livenet.NewBackend().Run(p, func(rank int, ep comm.Endpoint) {
		s, err := New(p, rank, n, k, Options{})
		if err != nil {
			panic(err)
		}
		s.ar.Reset()
		s.undo = s.ar.Chunks(8)
		copy(s.residual, grads[0][rank])
		var sel []int32
		s.runSRS(ep, &sel)
		if rank == 0 {
			for _, u := range s.undo {
				sawDense = sawDense || u.IsDense()
			}
		}
	})
	if !sawDense {
		t.Fatal("no undo record took the dense range form")
	}
}

// sendBomb panics on the worker's nth Send, part-way through a reduce.
type sendBomb struct {
	comm.Endpoint
	left int
}

func (b *sendBomb) Send(to int, payload any, bytes int) {
	if b.left--; b.left < 0 {
		panic("injected mid-reduce crash")
	}
	b.Endpoint.Send(to, payload, bytes)
}

// TestPanicMidReduceRecoveredByRestoreResidual: ReduceInto mutates the
// residual before the collective ends, so a worker that panics part-way
// leaves Residual() mid-procedure. The caller's own copy — the elastic
// trainer's snapshot ring — is the guard: after RestoreResidual on every
// rank the same reducers continue exactly as an uninterrupted run does.
func TestPanicMidReduceRecoveredByRestoreResidual(t *testing.T) {
	const p, n, k, iters = 6, 600, 60, 3
	grads := makeGradients(iters, p, n, 5)
	wantOut, wantRes, _ := runResiduals(p, n, iters, grads, func(rank int) residualReducer {
		s, _ := New(p, rank, n, k, Options{})
		return s
	})

	reducers := make([]*SparDL, p)
	ring := make([][]float32, p) // residuals as of the last completed barrier
	simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
		reducers[rank], _ = New(p, rank, n, k, Options{})
		reducers[rank].ReduceInto(ep, grads[0][rank], make([]float32, n))
		ring[rank] = append([]float32(nil), reducers[rank].Residual()...)
		ep.SyncClock()
	})

	// A reduce crashes: rank 2 dies on its second Send, the fabric is
	// poisoned and every rank unwinds out of ReduceInto. It is fed another
	// iteration's gradients, so nothing it leaves behind (vector or undo
	// records) happens to match the retry.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the injected crash did not surface")
			}
		}()
		simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
			var e comm.Endpoint = ep
			if rank == 2 {
				e = &sendBomb{Endpoint: ep, left: 1}
			}
			reducers[rank].ReduceInto(e, grads[2][rank], make([]float32, n))
		})
	}()
	if firstBitDiff(reducers[2].Residual(), ring[2]) < 0 {
		t.Fatal("the crashed reducer's residual is untouched; this test no longer exercises a mid-procedure state")
	}

	for rank, r := range reducers {
		r.RestoreResidual(ring[rank])
	}
	simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
		for it := 1; it < iters; it++ {
			out := make([]float32, n)
			reducers[rank].ReduceInto(ep, grads[it][rank], out)
			if i := firstBitDiff(out, wantOut[it][rank]); i >= 0 {
				panic(fmt.Sprintf("iter %d rank %d: out[%d] diverges after recovery", it, rank, i))
			}
			if i := firstBitDiff(reducers[rank].Residual(), wantRes[it][rank]); i >= 0 {
				panic(fmt.Sprintf("iter %d rank %d: residual[%d] diverges after recovery", it, rank, i))
			}
			ep.SyncClock()
		}
	})
}

// TestKeptInfLeavesFiniteResidual is the regression test for the poisoned
// global residual: a kept ±Inf entry used to collect (0+Inf)−Inf = NaN as
// its ξ, GRES stored that NaN, and from then on g + NaN ranked highest in
// every selection. A kept entry leaves exactly +0 behind, so the residual
// stays finite on every rank, and the backends still agree bit for bit.
func TestKeptInfLeavesFiniteResidual(t *testing.T) {
	const p, n, k, iters, poisoned = 4, 400, 40, 2, 137
	grads := makeGradients(iters, p, n, 3)
	grads[0][1][poisoned] = float32(math.Inf(1))

	run := func(b comm.Backend) (outs, residuals [][][]float32) {
		outs, residuals = make([][][]float32, iters), make([][][]float32, iters)
		for it := range outs {
			outs[it], residuals[it] = make([][]float32, p), make([][]float32, p)
		}
		b.Run(p, func(rank int, ep comm.Endpoint) {
			s, err := New(p, rank, n, k, Options{})
			if err != nil {
				panic(err)
			}
			for it := 0; it < iters; it++ {
				outs[it][rank] = s.Reduce(ep, grads[it][rank])
				residuals[it][rank] = append([]float32(nil), s.Residual()...)
				ep.SyncClock()
			}
		})
		return outs, residuals
	}
	simOut, simRes := run(simnet.Backend(unit))
	liveOut, liveRes := run(livenet.NewBackend())

	if !math.IsInf(float64(simOut[0][0][poisoned]), 1) {
		t.Fatalf("the Inf entry was not kept into the global gradient (out = %g); the test pins nothing", simOut[0][0][poisoned])
	}
	for it := 0; it < iters; it++ {
		for rank := 0; rank < p; rank++ {
			if v := float64(simRes[it][rank][poisoned]); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("iter %d rank %d: residual[%d] = %g after a kept Inf", it, rank, poisoned, v)
			}
			if i := firstBitDiff(simOut[it][rank], liveOut[it][rank]); i >= 0 {
				t.Fatalf("iter %d rank %d: simnet and livenet outputs differ at %d", it, rank, i)
			}
			if i := firstBitDiff(simRes[it][rank], liveRes[it][rank]); i >= 0 {
				t.Fatalf("iter %d rank %d: simnet and livenet residuals differ at %d", it, rank, i)
			}
		}
	}
	for rank := 0; rank < p; rank++ {
		for i, v := range simRes[iters-1][rank] {
			if math.IsNaN(float64(v)) {
				t.Fatalf("rank %d: residual[%d] is NaN one iteration after the Inf", rank, i)
			}
		}
	}
}
