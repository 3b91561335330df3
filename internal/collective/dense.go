package collective

import (
	"spardl/internal/comm"
	"spardl/internal/sparse"
)

// DenseBytes is the wire size of n dense float32 values.
func DenseBytes(n int) int { return 4 * n }

// RingAllReduce sums data across all P workers in place using the
// bandwidth-optimal ring algorithm: a P-1 step reduce-scatter pass followed
// by a P-1 step all-gather pass. Cost: 2(P-1)α + 2n(P-1)/P·β. This is the
// classical dense baseline the paper's Section I motivates against.
func RingAllReduce(ep comm.Endpoint, data []float32) {
	p := ep.P()
	if p == 1 {
		return
	}
	me := ep.Rank()
	next, prev := (me+1)%p, (me+p-1)%p
	part := sparse.NewPartition(len(data), p)

	// Reduce-scatter: after step s, this worker holds the partial sum of
	// block (me-s-1 mod p) over s+2 contributors … ending with the full
	// sum of block (me+1 mod p).
	for s := 0; s < p-1; s++ {
		sendBlk := ((me-s)%p + p) % p
		recvBlk := ((me-s-1)%p + p) % p
		lo, hi := part.Bounds(sendBlk)
		ep.Send(next, comm.Vec{F: data[lo:hi]}, DenseBytes(hi-lo))
		in, _ := ep.Recv(prev)
		lo, hi = part.Bounds(recvBlk)
		in.(comm.Vec).AddTo(data[lo:hi])
	}
	// All-gather: circulate the fully reduced blocks.
	for s := 0; s < p-1; s++ {
		sendBlk := ((me+1-s)%p + p) % p
		recvBlk := ((me-s)%p + p) % p
		lo, hi := part.Bounds(sendBlk)
		ep.Send(next, comm.Vec{F: data[lo:hi]}, DenseBytes(hi-lo))
		in, _ := ep.Recv(prev)
		lo, hi = part.Bounds(recvBlk)
		in.(comm.Vec).CopyTo(data[lo:hi])
	}
}

// RabenseifnerAllReduce sums data across all P workers in place using
// recursive-halving reduce-scatter followed by recursive-doubling
// all-gather: 2log₂P·α + 2n(P-1)/P·β. P must be a power of two; callers
// with other worker counts should use RingAllReduce. This is the efficient
// All-Reduce whose interaction with sparse gradients triggers the SGA
// dilemma (Section I).
func RabenseifnerAllReduce(ep comm.Endpoint, data []float32) {
	p := ep.P()
	if p == 1 {
		return
	}
	if p&(p-1) != 0 {
		panic("collective: Rabenseifner needs power-of-two P")
	}
	me := ep.Rank()

	// Recursive halving reduce-scatter. The active window [lo, hi) of the
	// vector halves every step; we always own the half containing our
	// final block.
	lo, hi := 0, len(data)
	groupLo, groupSize := 0, p
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
		in, _ := ep.SendRecv(peer, comm.Vec{F: data[sendLo:sendHi]}, DenseBytes(sendHi-sendLo))
		in.(comm.Vec).AddTo(data[keepLo:keepHi])
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
	// the sibling group's window.
	for dist := 1; dist < p; dist *= 2 {
		peer := me ^ dist
		myLo, myHi := bisectWindow(me, dist, len(data), p)
		peerLo, peerHi := bisectWindow(peer, dist, len(data), p)
		in, _ := ep.SendRecv(peer, comm.Vec{F: data[myLo:myHi]}, DenseBytes(myHi-myLo))
		in.(comm.Vec).CopyTo(data[peerLo:peerHi])
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
