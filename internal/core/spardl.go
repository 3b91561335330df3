package core

import (
	"fmt"

	"spardl/internal/collective"
	"spardl/internal/comm"
	"spardl/internal/sparse"
	"spardl/internal/sparsecoll"
	"spardl/internal/wire"
)

// SparDL is the paper's sparse communication framework. One instance per
// worker; ReduceInto performs one full synchronization:
//
//	Spar-Reduce-Scatter inside each team  (Section III-B)
//	→ Spar-All-Gather across teams        (Section III-D, when d > 1)
//	→ Bruck all-gather inside each team
//
// with the global residual collection algorithm (Section III-C) running
// throughout. With d = 1 (the default configuration the paper calls plain
// "SparDL"), only SRS and the final all-gather run, at a total cost of
// 2⌈log₂P⌉·α + 4k(P-1)/P·β (Eq. 4).
type SparDL struct {
	n, k    int
	p, rank int
	d, m    int // team count, team size (m = P/d)
	team    int // this worker's team, ranks [team·m, (team+1)·m)
	pos     int // this worker's position inside the team
	opts    Options
	rsag    bool           // teams synchronize by R-SAG, else B-SAG (meaningful when d > 1)
	blockK  int            // per-block selection size L(k,d,P) = dk/P = k/m
	tx      wire.Transport // what the simulator is charged for every sparse message

	part       *sparse.Partition // the m gradient blocks
	bags       [][]int           // bags[j-1] = relative block offsets of sending bag j
	teamRanks  []int             // global ranks of my team, by position
	groupRanks []int             // global ranks of my position-group, by team

	// residual is the reducer's one length-n vector. Between calls it is
	// the stored residual. During ReduceInto it is worked on in place: each
	// block takes its gradient at its first use (it is then that block of
	// the G_copy of Algorithm 1, line 3), blocks absorb received
	// contributions and are sparsified where they lie, and discarded values
	// are collected into it, so that when the collective ends it holds ξ,
	// everything discarded along the way. Each write after a block's
	// gradient is preceded by save, which makes the vector restorable to
	// G_copy in O(k); finishResidual does that.
	residual []float32
	undo     []*sparse.Chunk // values overwritten since the gradient was added, oldest first

	// grad is ReduceInto's gradient while the call lasts, and gradIn says
	// per block how the block got it: a block selected before any received
	// chunk lands in it gets it inside the selection, in the same read
	// (sparse.Arena.TopKDenseAdd); one a chunk lands in first, by AddInto
	// just before. Either way every element is residual + gradient before
	// anything else touches it.
	grad   []float32
	gradIn []gradState

	hctl *HController
	nts  []int // recorded N_t series (Fig. 7)

	// Steady-state allocation machinery: every chunk, pointer slice and undo
	// record built during a ReduceInto comes from the arena (epoch-reset at the
	// top of each call) — a steady-state ReduceInto performs no heap
	// allocation of its own.
	ar     *sparse.Arena
	selBuf []int32 // LRES: indices this worker selected, reused across calls
}

// gradState is how a block of the working vector got its gradient.
type gradState uint8

const (
	gradPending gradState = iota // not yet
	gradAdded                    // by AddInto, before a received chunk landed in the block
	gradFused                    // by the block's selection, in the same pass
)

// New builds the SparDL reducer for one worker of a P-worker cluster
// synchronizing length-n gradients with global selection size k.
//
// The per-block selection size is L(k,d,P) = ⌊k/m⌋ clamped to at least 1
// (every block must contribute something for the schedule to stay
// well-formed), so the cluster-wide selection the reducer actually
// enforces is m·max(1, ⌊k/m⌋) — EffectiveK — not k itself. The drift goes
// both ways: k < m rounds *up* to m (the clamp), and any k not divisible
// by m rounds *down* by up to m−1 (the floor). Callers that need the
// requested and enforced budgets to coincide should pick k as a multiple
// of m = P/d; the regression tests pin this arithmetic.
func New(p, rank, n, k int, opts Options) (*SparDL, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(p); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("core: rank %d outside [0, %d)", rank, p)
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("core: k=%d outside [1, n=%d]", k, n)
	}
	d := opts.Teams
	m := p / d
	blockK := k / m
	if blockK < 1 {
		blockK = 1
	}
	s := &SparDL{
		n: n, k: k, p: p, rank: rank,
		d: d, m: m, team: rank / m, pos: rank % m,
		opts: opts, rsag: opts.rsag(), blockK: blockK,
		part:     sparse.NewPartition(n, m),
		bags:     sendBags(m),
		residual: make([]float32, n),
		gradIn:   make([]gradState, m),
		ar:       sparse.NewArena(),
	}
	s.teamRanks = make([]int, m)
	for j := range s.teamRanks {
		s.teamRanks[j] = s.team*m + j
	}
	s.groupRanks = make([]int, d)
	for t := range s.groupRanks {
		s.groupRanks[t] = t*m + s.pos
	}
	if d > 1 && !s.rsag {
		s.hctl = NewHController(p, d, k)
	}
	return s, nil
}

// sendBags partitions the m-1 non-preserved blocks into l = ⌈log₂m⌉
// sending bags (Section III-B "Partitioning"): bag j holds the 2^(j-1)
// blocks at relative offsets [2^(j-1), 2^j) from the preservation block,
// except the last bag, which holds the E = m − 2^(l-1) remaining blocks.
func sendBags(m int) [][]int {
	if m <= 1 {
		return nil
	}
	l := 0
	for 1<<l < m {
		l++
	}
	bags := make([][]int, l)
	for j := 1; j <= l; j++ {
		lo := 1 << (j - 1)
		hi := 1 << j
		if hi > m {
			hi = m
		}
		offs := make([]int, 0, hi-lo)
		for r := lo; r < hi; r++ {
			offs = append(offs, r)
		}
		bags[j-1] = offs
	}
	return bags
}

// Name implements sparsecoll.Reducer.
func (s *SparDL) Name() string {
	name := "SparDL"
	if s.d > 1 {
		sag := "B-SAG"
		if s.rsag {
			sag = "R-SAG"
		}
		name = fmt.Sprintf("SparDL(%s,d=%d)", sag, s.d)
	}
	if s.opts.Residual != GRES {
		name += "-" + s.opts.Residual.String()
	}
	if s.opts.Eager {
		name += "-eager"
	}
	if s.tx.Mode != wire.ModeCOO {
		name += "+" + s.tx.Mode.String()
	}
	return name
}

// SetWire sets what the simulator charges for every sparse message
// (default wire.ModeCOO, the paper's 8 bytes per entry); sparsecoll.Tuned
// calls it.
func (s *SparDL) SetWire(mode wire.Mode) { s.tx.Mode = mode }

// Residual implements sparsecoll.ResidualCarrier; the returned slice is
// live internal state and must be treated as read-only. It holds the
// residual only between calls: ReduceInto works in place on this vector,
// so a call that panics part-way leaves it mid-procedure and the caller
// must RestoreResidual from its own copy (the elastic trainer's snapshot
// ring) before reducing again.
func (s *SparDL) Residual() []float32 { return s.residual }

// BsagCounts returns the recorded N_t series — the number of gradients
// observed after each inter-team Bruck all-gather — used to reproduce
// Fig. 7 and to drive Algorithm 2.
func (s *SparDL) BsagCounts() []int { return s.nts }

// SelectStats reports how this reducer's block selections found their
// thresholds so far: cold, warm hit (of which tightened, widened),
// fallback (see sparse.SelectStats). The counts say where selection time went; the
// selections themselves do not depend on them.
func (s *SparDL) SelectStats() sparse.SelectStats { return s.ar.SelectStats() }

// BlockK returns the per-block selection size L(k,d,P) = dk/P.
func (s *SparDL) BlockK() int { return s.blockK }

// EffectiveK returns the cluster-wide selection size the reducer actually
// enforces: m·max(1, ⌊k/m⌋), the per-block size times the block count.
// It exceeds the requested k whenever k < m (the clamp raises every block
// to one entry) and falls short by up to m−1 when m does not divide k;
// see New. The final global gradient never holds more than EffectiveK
// entries.
func (s *SparDL) EffectiveK() int { return s.blockK * s.m }

// ReduceInto implements sparsecoll.Reducer: one full SparDL
// synchronization whose result overwrites out (len n). At steady state the
// call is allocation-free: chunks and undo records come from the reducer's
// arena (epoch-reset here), and the only dense vector is the residual.
// There is no pass over the vector to add the gradient: phase 1 reads grad
// block by block, each block at its first use, and every sum is what it
// would be had the gradient been added up front.
func (s *SparDL) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	if len(grad) != s.n || len(out) != s.n {
		panic(fmt.Sprintf("core: gradient/output length %d/%d, expected %d", len(grad), len(out), s.n))
	}
	// New arena epoch: everything handed out two ReduceInto calls ago is
	// reclaimed (one epoch of quarantine covers in-flight peer reads on
	// reference-passing backends; see sparse.Arena).
	s.ar.Reset()
	// An SRS step saves once per received chunk and once per sparsified
	// block (at most m−1 and m over the whole phase), the SAG variants once
	// per level; beyond this capacity the appends would only leave the
	// arena for the heap.
	s.undo = s.ar.Chunks(2*s.m + 32)
	// Plus the fresh gradients onto the stored residuals, block by block
	// at first use (addGrad, sparsifyDenseBlock): no pass over the vector
	// up front. Once every block has it, the vector equals the G_copy of
	// Algorithm 1, line 3, which is not stored anywhere: finishResidual
	// reconstructs it from the undo records. The simulator charges the add
	// here, as one scan of the vector.
	s.grad = grad
	clear(s.gradIn)
	sparsecoll.ChargeScan(ep, s.n)

	localSel := s.selBuf[:0] // indices this worker selected for transmission (LRES)

	// Phase 1: Spar-Reduce-Scatter inside the team.
	var reserved *sparse.Chunk
	if s.m == 1 {
		// Single-member teams (d = P): the "reserved block" is the whole
		// vector; only the local top-k applies before team synchronization.
		reserved = s.sparsifyDenseBlock(ep, 0, &localSel)
	} else if s.opts.Eager {
		reserved = s.runSRSEager(ep, &localSel)
	} else {
		reserved = s.runSRS(ep, &localSel)
	}

	// Phase 2: Spar-All-Gather across teams.
	if s.d > 1 {
		if s.rsag {
			reserved = s.runRSAG(ep, reserved)
		} else {
			reserved = s.runBSAG(ep, reserved)
		}
	}

	// Phase 3: Bruck all-gather of the reduced blocks inside the team.
	// finalChunks is always born with exact arena capacity so the appends
	// below never grow it.
	finalChunks := s.ar.Chunks(1)
	if s.m == 1 {
		finalChunks = append(finalChunks, reserved)
	} else {
		items := collective.BruckAllGatherAlloc(ep, s.teamRanks, s.pos, reserved, s.tx.ItemBytes, s.ar)
		finalChunks = s.ar.Chunks(len(items))
		total := 0
		for _, it := range items {
			c := it.(*sparse.Chunk)
			finalChunks = append(finalChunks, c)
			total += c.Len()
		}
		sparsecoll.ChargeMerge(ep, total)
	}

	for i := range out {
		out[i] = 0
	}
	for _, c := range finalChunks {
		c.AddToDense(out)
	}

	s.finishResidual(ep, finalChunks, localSel)
	s.selBuf = localSel[:0]
	s.grad = nil
}

// runSRS is the transmission-with-sparsification process of Section III-B
// with the paper's lazy-sparsification optimization: a block stays dense in
// the working vector, absorbing received contributions, until the step
// that transmits it. At step i the worker sends bag l-i+1 to the team
// member 2^(l-i) positions ahead and receives the mirror bag from 2^(l-i)
// behind; received chunks are summed into the vector (Theorem 1 guarantees
// they fall into still-held blocks, so a sparsified block is never written
// again). After l steps only the preservation block remains, which is
// sparsified last (Algorithm 1, line 9).
func (s *SparDL) runSRS(ep comm.Endpoint, localSel *[]int32) *sparse.Chunk {
	m, pos := s.m, s.pos
	l := len(s.bags)
	for i := 1; i <= l; i++ {
		dist := 1 << (l - i)
		bag := s.bags[l-i] // bag number l-i+1
		payload := s.ar.Chunks(len(bag))
		for _, r := range bag {
			kept := s.sparsifyDenseBlock(ep, (pos+r)%m, localSel)
			if kept.Len() > 0 {
				payload = append(payload, kept)
			}
		}
		target := s.teamRanks[(pos+dist)%m]
		source := s.teamRanks[(pos-dist+m)%m]
		pk, bytes := s.tx.PackSlice(payload)
		ep.Send(target, pk, bytes)
		in, _ := ep.Recv(source)
		for _, c := range in.([]*sparse.Chunk) {
			sparsecoll.ChargeMerge(ep, c.Len())
			s.addGrad(s.part.BlockOf(c.IdxAt(0)))
			s.save(c)
			c.AddToDense(s.residual)
		}
	}
	return s.sparsifyDenseBlock(ep, pos, localSel)
}

// runSRSEager is the unoptimized variant (the ablation baseline for the
// "Optimization for SRS" paragraph): every block is sparsified up front and
// re-sparsified immediately after each summation.
func (s *SparDL) runSRSEager(ep comm.Endpoint, localSel *[]int32) *sparse.Chunk {
	m, pos := s.m, s.pos
	blocks := s.ar.Chunks(m)
	for b := 0; b < m; b++ {
		blocks = append(blocks, s.sparsifyDenseBlock(ep, b, localSel))
	}
	l := len(s.bags)
	for i := 1; i <= l; i++ {
		dist := 1 << (l - i)
		bag := s.bags[l-i]
		payload := s.ar.Chunks(len(bag))
		for _, r := range bag {
			b := (pos + r) % m
			if blocks[b].Len() > 0 {
				payload = append(payload, blocks[b])
			}
			blocks[b] = nil // sent away; no longer held
		}
		target := s.teamRanks[(pos+dist)%m]
		source := s.teamRanks[(pos-dist+m)%m]
		pk, bytes := s.tx.PackSlice(payload)
		ep.Send(target, pk, bytes)
		in, _ := ep.Recv(source)
		for _, c := range in.([]*sparse.Chunk) {
			b := s.part.BlockOf(c.IdxAt(0))
			sparsecoll.ChargeMerge(ep, c.Len()+blocks[b].Len())
			// blocks[b] is local-only (never sent), so the merge may reuse
			// its storage in place; the merged intermediate is recycled as
			// soon as the selection has copied out of it.
			merged := s.ar.MergeAddInto(blocks[b], c)
			kept, dropped := s.ar.TopKChunk(merged, s.blockK)
			sparsecoll.ChargeScan(ep, merged.Len())
			s.addDrops(dropped, 1)
			s.ar.Recycle(merged)
			s.ar.Recycle(dropped)
			blocks[b] = kept
		}
	}
	return blocks[pos]
}

// sparsifyDenseBlock selects the top blockK entries of block b of the
// working vector and zeroes them there: they leave with the returned
// chunk, and every value left behind in the block is this worker's
// discard ξ. A kept entry's ξ is set to zero rather than computed as
// v − v, which is NaN for a kept ±Inf and would poison the stored residual
// for good. A block that does not hold its gradient yet takes it in the
// selection's own pass.
func (s *SparDL) sparsifyDenseBlock(ep comm.Endpoint, b int, localSel *[]int32) *sparse.Chunk {
	lo, hi := s.part.Bounds(b)
	var add []float32
	if s.gradIn[b] == gradPending {
		add, s.gradIn[b] = s.grad, gradFused
	}
	kept := s.ar.TopKDenseAdd(s.residual, add, lo, hi, s.blockK)
	sparsecoll.ChargeScan(ep, hi-lo)
	s.save(kept)
	kept.ClearInDense(s.residual)
	if s.opts.Residual == LRES {
		*localSel = append(*localSel, kept.Idx...)
	}
	return kept
}

// addGrad adds the gradient into block b unless the block holds it
// already: a received chunk is about to land there before the block's
// selection could add it.
func (s *SparDL) addGrad(b int) {
	if s.gradIn[b] == gradPending {
		lo, hi := s.part.Bounds(b)
		sparse.AddInto(s.residual[lo:hi], s.grad[lo:hi])
		s.gradIn[b] = gradAdded
	}
}

// save records the working vector's current values at c's entries. Every
// write into the vector after a block's gradient is preceded by a save of
// the entries it is about to touch, so replaying the records newest-first
// restores G_copy exactly, however often an index was written.
func (s *SparDL) save(c *sparse.Chunk) {
	s.undo = append(s.undo, s.ar.Gather(c, s.residual))
}

// addDrops accumulates a dropped chunk into ξ with the given share. The
// share is 1 when this worker is the unique holder of the dropped partial
// sums, and 1/2^(t+1) at R-SAG level t (2^(t+1) workers hold identical data
// and drop identically).
func (s *SparDL) addDrops(dropped *sparse.Chunk, share float32) {
	s.save(dropped)
	if dropped.IsDense() {
		lo, _ := dropped.DenseRange()
		for i, v := range dropped.Val {
			s.residual[lo+int32(i)] += v * share
		}
		return
	}
	for i, idx := range dropped.Idx {
		s.residual[idx] += dropped.Val[i] * share
	}
}

// finishResidual is lines 11-13 of Algorithm 1 plus the PRES/LRES
// ablations. On entry the working vector holds ξ. The stored residual is
// G_copy, except that every index that made the final global gradient
// takes its ξ value (GRES), zero (PRES), or — for LRES — zero at exactly the
// indices this worker itself selected for transmission. So: lift ξ at the
// final indices, replay the undo records newest-first to get G_copy back,
// and write the substitutions — O(k) entries, no pass over the vector.
func (s *SparDL) finishResidual(ep comm.Endpoint, finalChunks []*sparse.Chunk, localSel []int32) {
	// Dense final chunks substitute over their whole block: every position
	// of a densified stream is an entry of the final gradient.
	xi := s.ar.Chunks(len(finalChunks))
	if s.opts.Residual == GRES {
		for _, c := range finalChunks {
			xi = append(xi, s.ar.Gather(c, s.residual))
		}
	}
	for i := len(s.undo) - 1; i >= 0; i-- {
		s.undo[i].SetInDense(s.residual)
	}
	s.undo = nil
	switch s.opts.Residual {
	case GRES:
		for _, c := range xi {
			c.SetInDense(s.residual)
		}
	case PRES:
		for _, c := range finalChunks {
			c.ClearInDense(s.residual)
		}
	case LRES:
		for _, idx := range localSel {
			s.residual[idx] = 0
		}
	}
	sparsecoll.ChargeScan(ep, s.n)
}
