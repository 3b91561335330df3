package collective

import (
	"spardl/internal/comm"
	"spardl/internal/sparse"
)

// The dense schedules as they stood when the caller copied its input into
// the output vector and both collectives ran in place on it: every
// reduce-scatter step accumulated into that copy. They are kept verbatim
// as the oracle RingAllReduceInto and RabenseifnerAllReduceInto, which
// read their input where it lies, are held to (TestDenseOutputCoverage).

// refDenseInto is the copy-then-in-place reduction into out.
func refDenseInto(ring bool, ep comm.Endpoint, grad, out []float32) {
	copy(out, grad)
	if ring {
		refRingAllReduce(ep, out)
	} else {
		refRabenseifnerAllReduce(ep, out)
	}
}

func refRingAllReduce(ep comm.Endpoint, data []float32) {
	p := ep.P()
	if p == 1 {
		return
	}
	me := ep.Rank()
	next, prev := (me+1)%p, (me+p-1)%p
	part := sparse.NewPartition(len(data), p)
	for s := 0; s < p-1; s++ {
		sendBlk := ((me-s)%p + p) % p
		recvBlk := ((me-s-1)%p + p) % p
		lo, hi := part.Bounds(sendBlk)
		ep.Send(next, comm.Vec{F: data[lo:hi]}, DenseBytes(hi-lo))
		in, _ := ep.Recv(prev)
		lo, hi = part.Bounds(recvBlk)
		in.(comm.Vec).AddTo(data[lo:hi])
	}
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

func refRabenseifnerAllReduce(ep comm.Endpoint, data []float32) {
	p := ep.P()
	if p == 1 {
		return
	}
	me := ep.Rank()
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
	for dist := 1; dist < p; dist *= 2 {
		peer := me ^ dist
		myLo, myHi := bisectWindow(me, dist, len(data), p)
		peerLo, peerHi := bisectWindow(peer, dist, len(data), p)
		in, _ := ep.SendRecv(peer, comm.Vec{F: data[myLo:myHi]}, DenseBytes(myHi-myLo))
		in.(comm.Vec).CopyTo(data[peerLo:peerHi])
	}
}
