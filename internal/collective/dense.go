package collective

import (
	"spardl/internal/comm"
	"spardl/internal/sparse"
)

// DenseBytes is the wire size of n dense float32 values.
func DenseBytes(n int) int { return 4 * n }

// RingAllReduce sums data across all P workers in place using the
// bandwidth-optimal ring algorithm; it is RingAllReduceInto(ep, data, data).
func RingAllReduce(ep comm.Endpoint, data []float32) { RingAllReduceInto(ep, data, data) }

// RingAllReduceInto sets out to the sum of every worker's src using the
// bandwidth-optimal ring algorithm: a P-1 step reduce-scatter pass followed
// by a P-1 step all-gather pass. Cost: 2(P-1)α + 2n(P-1)/P·β. This is the
// classical dense baseline the paper's Section I motivates against.
//
// src is read where it lies and never written; out (len(src) elements) is
// fully overwritten, so it needs no copy of src beforehand, and src may be
// out itself. Every output element is the same sequence of additions on
// the same operands either way.
func RingAllReduceInto(ep comm.Endpoint, src, out []float32) {
	p := ep.P()
	if p == 1 {
		copy(out, src)
		return
	}
	me := ep.Rank()
	next, prev := (me+1)%p, (me+p-1)%p
	part := sparse.NewPartition(len(src), p)

	// Reduce-scatter: after step s, this worker holds the partial sum of
	// block (me-s-1 mod p) over s+2 contributors … ending with the full
	// sum of block (me+1 mod p). Each step receives a block it has not
	// touched yet, so its own share of that block is still only in src:
	// out gets src + received, never a stale out. Step 0 sends this
	// worker's own block, which likewise exists only in src.
	from := src
	for s := 0; s < p-1; s++ {
		sendBlk := ((me-s)%p + p) % p
		recvBlk := ((me-s-1)%p + p) % p
		lo, hi := part.Bounds(sendBlk)
		ep.Send(next, comm.Vec{F: from[lo:hi]}, DenseBytes(hi-lo))
		from = out
		in, _ := ep.Recv(prev)
		lo, hi = part.Bounds(recvBlk)
		in.(comm.Vec).SumTo(out[lo:hi], src[lo:hi])
	}
	// All-gather: circulate the fully reduced blocks. Step 0 writes block
	// me, the one block reduce-scatter only sent.
	for s := 0; s < p-1; s++ {
		sendBlk := ((me+1-s)%p + p) % p
		recvBlk := ((me-s)%p + p) % p
		lo, hi := part.Bounds(sendBlk)
		ep.Send(next, comm.Vec{F: out[lo:hi]}, DenseBytes(hi-lo))
		in, _ := ep.Recv(prev)
		lo, hi = part.Bounds(recvBlk)
		in.(comm.Vec).CopyTo(out[lo:hi])
	}
}

// RabenseifnerAllReduce sums data across all P workers in place using
// Rabenseifner's algorithm; it is RabenseifnerAllReduceInto(ep, data, data).
func RabenseifnerAllReduce(ep comm.Endpoint, data []float32) {
	RabenseifnerAllReduceInto(ep, data, data)
}

// RabenseifnerAllReduceInto sets out to the sum of every worker's src using
// recursive-halving reduce-scatter followed by recursive-doubling
// all-gather: 2log₂P·α + 2n(P-1)/P·β. P must be a power of two; callers
// with other worker counts should use RingAllReduceInto. This is the
// efficient All-Reduce whose interaction with sparse gradients triggers the
// SGA dilemma (Section I).
//
// src is read where it lies and never written; out (len(src) elements) is
// fully overwritten, so it needs no copy of src beforehand, and src may be
// out itself. Every output element is the same sequence of additions on
// the same operands either way.
func RabenseifnerAllReduceInto(ep comm.Endpoint, src, out []float32) {
	p := ep.P()
	if p == 1 {
		copy(out, src)
		return
	}
	if p&(p-1) != 0 {
		panic("collective: Rabenseifner needs power-of-two P")
	}
	me := ep.Rank()

	// Recursive halving reduce-scatter. The active window [lo, hi) of the
	// vector halves every step; we always own the half containing our
	// final block. The first step sends from src and writes the kept half
	// as src + received; every later step works on that half of out in
	// place.
	lo, hi := 0, len(src)
	groupLo, groupSize := 0, p
	from := src
	for groupSize > 1 {
		half := groupSize / 2
		mid := lo + (hi-lo)/2
		inLower := me-groupLo < half
		peer := me + half
		if !inLower {
			peer = me - half
		}
		var sendLo, sendHi, keepLo, keepHi int
		if inLower {
			sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
		} else {
			sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
		}
		in, _ := ep.SendRecv(peer, comm.Vec{F: from[sendLo:sendHi]}, DenseBytes(sendHi-sendLo))
		if groupSize == p {
			in.(comm.Vec).SumTo(out[keepLo:keepHi], src[keepLo:keepHi])
		} else {
			in.(comm.Vec).AddTo(out[keepLo:keepHi])
		}
		from = out
		lo, hi = keepLo, keepHi
		if inLower {
			groupSize = half
		} else {
			groupLo += half
			groupSize = half
		}
	}

	// Recursive doubling all-gather of the reduced blocks, mirroring the
	// halving pattern in reverse: at distance d each worker holds the
	// bisection window of its aligned d-sized rank group and trades it for
	// the sibling group's window. The windows received cover everything
	// outside this worker's final halving window, which the halving wrote,
	// so every element of out is written.
	for dist := 1; dist < p; dist *= 2 {
		peer := me ^ dist
		myLo, myHi := bisectWindow(me, dist, len(src), p)
		peerLo, peerHi := bisectWindow(peer, dist, len(src), p)
		in, _ := ep.SendRecv(peer, comm.Vec{F: out[myLo:myHi]}, DenseBytes(myHi-myLo))
		in.(comm.Vec).CopyTo(out[peerLo:peerHi])
	}
}

// bisectWindow returns the vector window held, after the recursive-halving
// phase, by the aligned group of `span` consecutive ranks containing rank.
// Windows follow the same midpoint bisection the reduce-scatter used, so
// they are consistent even when len(data) is not divisible by P.
func bisectWindow(rank, span, n, p int) (lo, hi int) {
	lo, hi = 0, n
	groupLo, groupSize := 0, p
	for groupSize > span {
		half := groupSize / 2
		mid := lo + (hi-lo)/2
		if rank-groupLo < half {
			hi = mid
			groupSize = half
		} else {
			lo = mid
			groupLo += half
			groupSize = half
		}
	}
	return lo, hi
}
