// Package collective implements the classical collective-communication
// algorithms the paper builds on (Section II): Bruck all-gather, recursive
// doubling all-gather, ring and Rabenseifner all-reduce, and direct-send
// reduce-scatter. The all-gather schedules are generic over opaque items so
// the sparse methods (package sparsecoll and core) can reuse them for COO
// chunks, while the dense versions serve as baselines.
package collective

import (
	"fmt"

	"spardl/internal/comm"
)

// Allocator supplies the []any item slices an all-gather schedule moves
// around — in practice a *sparse.Arena, whose epoch quarantine makes the
// slices safe to send by reference and reclaims them without a free. A
// nil Allocator falls back to plain heap allocation.
type Allocator interface {
	Anys(capacity int) []any
}

// allocAnys draws an item slice from the allocator; the make below is the
// nil-allocator heap fallback, by design.
//
//spardl:hotpath
func allocAnys(a Allocator, n int) []any {
	if a == nil {
		return make([]any, 0, n)
	}
	return a.Anys(n)
}

// WorldRanks returns [0, 1, …, p-1], the group of all workers.
func WorldRanks(p int) []int {
	r := make([]int, p)
	for i := range r {
		r[i] = i
	}
	return r
}

// SizeFunc reports the wire size in bytes of one gathered item. Callers
// choose the accounting: the sparse methods pass wire.Transport.ItemBytes
// for items that are bare *sparse.Chunk (COO or negotiated-codec sizing),
// or their own function for wrapped items. A SizeFunc must be
// deterministic in the item alone — Bruck and recursive doubling re-size
// the same item on every forwarding hop, and workers must agree on the
// charged volume.
type SizeFunc func(item any) int

// BruckAllGather runs the Bruck all-gather schedule among the group members
// listed in ranks; ep must belong to ranks[pos]. Every member contributes
// one item; the result holds each member's item indexed by member position.
//
// The schedule takes ⌈log₂g⌉ rounds for a group of size g and each worker
// receives exactly g-1 items in total — the bandwidth lower bound — for
// *any* group size, which is why SparDL uses it for every all-gather
// (Section III-B). At step t a worker sends its first min(2^t, g-2^t)
// accumulated items to the member 2^t positions behind it and receives as
// many from the member 2^t ahead.
func BruckAllGather(ep comm.Endpoint, ranks []int, pos int, own any, size SizeFunc) []any {
	return BruckAllGatherAlloc(ep, ranks, pos, own, size, nil)
}

// BruckAllGatherAlloc is BruckAllGather with the item slices drawn from
// alloc (see Allocator) — the steady-state allocation-free path every
// arena-backed reducer uses.
//
//spardl:hotpath
func BruckAllGatherAlloc(ep comm.Endpoint, ranks []int, pos int, own any, size SizeFunc, alloc Allocator) []any {
	g := len(ranks)
	if g == 0 || ranks[pos] != ep.Rank() {
		panic("collective: endpoint is not the claimed group member")
	}
	if g == 1 {
		return append(allocAnys(alloc, 1), own)
	}
	held := append(allocAnys(alloc, g), own) // held[j] is the item of member (pos+j) mod g
	for dist := 1; dist < g; dist *= 2 {
		count := dist
		if g-dist < count {
			count = g - dist
		}
		dst := ranks[((pos-dist)%g+g)%g]
		src := ranks[(pos+dist)%g]
		out := append(allocAnys(alloc, count), held[:count]...)
		bytes := 0
		for _, it := range out {
			bytes += size(it)
		}
		//spardl:alloc-ok the []any batch boxed into the payload is the Endpoint contract; one header per round, item storage is arena-backed
		ep.Send(dst, out, bytes)
		in, _ := ep.Recv(src)
		held = append(held, in.([]any)...)
	}
	// held[j] belongs to member (pos+j) mod g; rotate into member order.
	result := allocAnys(alloc, g)[:g]
	for j, it := range held {
		result[(pos+j)%g] = it
	}
	return result
}

// RecursiveDoublingAllGather runs the recursive doubling all-gather among
// the group in ranks, which must have power-of-two size (the algorithm's
// classical limitation, Section II). At step t each worker exchanges its
// entire accumulated set with the member at distance 2^t.
func RecursiveDoublingAllGather(ep comm.Endpoint, ranks []int, pos int, own any, size SizeFunc) []any {
	g := len(ranks)
	if g == 0 || ranks[pos] != ep.Rank() {
		panic("collective: endpoint is not the claimed group member")
	}
	if g&(g-1) != 0 {
		panic(fmt.Sprintf("collective: recursive doubling needs power-of-two group, got %d", g))
	}
	result := make([]any, g)
	result[pos] = own
	for dist := 1; dist < g; dist *= 2 {
		peer := pos ^ dist
		// After t = log₂(dist) completed steps a worker holds exactly its
		// aligned 2^t block of member positions, [pos&^(dist-1), …+dist).
		// Iterating that block arithmetically — rather than tracking a
		// `have` set and ranging over the received map — makes pack and
		// unpack order rank-order deterministic, so the byte stream a
		// byte-level backend serializes is bit-identical across runs.
		base := pos &^ (dist - 1)
		out := make(map[int]any, dist)
		bytes := 0
		for j := base; j < base+dist; j++ {
			out[j] = result[j]
			bytes += size(result[j])
		}
		in, _ := ep.SendRecv(ranks[peer], out, bytes)
		m := in.(map[int]any)
		peerBase := peer &^ (dist - 1)
		for j := peerBase; j < peerBase+dist; j++ {
			it, ok := m[j]
			if !ok {
				panic(fmt.Sprintf("collective: recursive doubling peer %d omitted member %d", ranks[peer], j))
			}
			result[j] = it
		}
	}
	return result
}
