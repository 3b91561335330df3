package core

import (
	"spardl/internal/collective"
	"spardl/internal/comm"
	"spardl/internal/sparse"
	"spardl/internal/sparsecoll"
)

// runRSAG synchronizes the d teams by recursive doubling (Section III-D,
// case "d is a power of 2"). At step t this worker exchanges its reduced
// block with the same-position worker of the team at distance 2^t, sums,
// and selects the top L(k,d,P) entries. Cost: log₂d·α + 2(dk/P)log₂d·β
// (Eq. 5).
//
// Residual sharing: after the step-t merge, 2^(t+1) workers hold identical
// data and perform identical drops, so each collects a 1/2^(t+1) share.
// (The paper states the ½ rule for one exchange, which is exact for d = 2;
// the generalization keeps the cluster-wide conservation law exact for all
// d.)
func (s *SparDL) runRSAG(ep comm.Endpoint, mine *sparse.Chunk) *sparse.Chunk {
	share := float32(0.5)
	for dist := 1; dist < s.d; dist *= 2 {
		peer := s.groupRanks[s.team^dist]
		in, _ := ep.SendRecv(peer, mine, s.tx.ChunkBytes(mine))
		got := in.(*sparse.Chunk)
		sparsecoll.ChargeMerge(ep, got.Len()+mine.Len())
		// mine was just sent by reference to the peer and got belongs to
		// the peer's arena, so neither may be merged in place or recycled;
		// only the local merged intermediate is.
		merged := s.ar.MergeAdd(mine, got)
		kept, dropped := s.ar.TopKChunk(merged, s.blockK)
		sparsecoll.ChargeScan(ep, merged.Len())
		s.addDrops(dropped, share)
		s.ar.Recycle(merged)
		s.ar.Recycle(dropped)
		mine = kept
		share /= 2
	}
	return mine
}

// runBSAG synchronizes the d teams with the Bruck-based sparse all-gather
// (Section III-D, case "d is not a power of 2"). Selecting during a Bruck
// exchange would compress blocks in different orders on different workers
// and desynchronize the model replicas, so B-SAG instead applies a single
// top-h selection *before* the all-gather — with h steered by Algorithm 2
// so that the merged count N_t lands near L(k,d,P) — and one final top-L
// selection after it, which is identical on all members of the position
// group. Cost: Eq. 8.
func (s *SparDL) runBSAG(ep comm.Endpoint, mine *sparse.Chunk) *sparse.Chunk {
	h := s.hctl.H()
	sel, dropped := s.ar.TopKChunk(mine, h)
	sparsecoll.ChargeScan(ep, mine.Len())
	// This worker is the unique holder of its team's partial sums, so the
	// pre-gather drops are collected in full.
	s.addDrops(dropped, 1)
	s.ar.Recycle(dropped)

	items := collective.BruckAllGatherAlloc(ep, s.groupRanks, s.team, sel, s.tx.ItemBytes, s.ar)
	chunks := s.ar.Chunks(len(items))
	total := 0
	for _, it := range items {
		c := it.(*sparse.Chunk)
		chunks = append(chunks, c)
		total += c.Len()
	}
	sparsecoll.ChargeMerge(ep, total)
	merged := s.ar.MergeAddAll(chunks)
	nt := merged.Len()
	s.nts = append(s.nts, nt)

	kept, dropped2 := s.ar.TopKChunk(merged, s.blockK)
	sparsecoll.ChargeScan(ep, nt)
	// The final drops are not collected: they miss the final index set,
	// where finishResidual restores G_copy whatever ξ holds.
	s.ar.Recycle(merged)
	s.ar.Recycle(dropped2)

	s.hctl.Observe(nt)
	return kept
}
