// Package sparsecoll is an arenasafe fixture exercising every ownership
// rule against the real sparse.Arena API.
package sparsecoll

import "spardl/internal/sparse"

type cache struct {
	held *sparse.Chunk
}

var global *sparse.Chunk

// Storing an arena chunk into a struct field outlives the epoch.
func (s *cache) stash(a *sparse.Arena) {
	c := a.Get(8)
	s.held = c // want `arena chunk c escapes into field held`
}

// Storing an arena chunk into a package variable outlives the epoch.
func publish(a *sparse.Arena) {
	c := a.Get(8)
	global = c // want `arena chunk c escapes into package variable global`
}

// Sending an arena chunk on a channel hands it to a receiver that outlives
// the epoch.
func send(a *sparse.Arena, ch chan<- *sparse.Chunk) {
	c := a.Get(8)
	ch <- c // want `arena chunk c escapes on a channel send`
}

// Sharing an arena chunk with a goroutine breaks the one-owner contract.
func fanOut(a *sparse.Arena, dense []float32) {
	c := a.FromDense(dense, 0, len(dense))
	go func() {
		c.AddToDense(dense) // want `arena chunk c is shared with a goroutine`
	}()
}

// Using a chunk after Recycle reads storage that may already back another
// chunk; recycling twice panics at runtime.
func useAfterRecycle(a *sparse.Arena, dense []float32) int {
	c := a.FromDense(dense, 0, len(dense))
	a.Recycle(c)
	return c.Len() // want `c is used after Recycle`
}

func doubleRecycle(a *sparse.Arena, dense []float32) {
	c := a.FromDense(dense, 0, len(dense))
	a.Recycle(c)
	a.Recycle(c) // want `c is recycled twice in this block`
}

// Dense-block chunks follow the same ownership rules as sparse ones: a
// GetDense result stored into a struct field outlives the epoch.
func (s *cache) stashDense(a *sparse.Arena) {
	c := a.GetDense(0, 128)
	s.held = c // want `arena chunk c escapes into field held`
}

// The sanctioned dense shape: allocate, scatter into, hand off.
func denseFanIn(a *sparse.Arena, parts []*sparse.Chunk) *sparse.Chunk {
	out := a.GetDense(0, 256)
	for _, p := range parts {
		p.AddToDense(out.Val)
	}
	return out
}

// The sanctioned shape: allocate, use, recycle — or transfer ownership by
// returning / passing the chunk on.
func merge(a *sparse.Arena, x, y *sparse.Chunk) *sparse.Chunk {
	tmp := a.Clone(x)
	out := a.MergeAdd(tmp, y)
	a.Recycle(tmp)
	return out
}

// Recycling inside one branch does not poison uses in the other.
func branchRecycle(a *sparse.Arena, x *sparse.Chunk, keep bool) *sparse.Chunk {
	c := a.Clone(x)
	if !keep {
		a.Recycle(c)
		return a.Get(0)
	}
	return c
}

// A reviewed exception survives with a reason.
type snapshot struct {
	last *sparse.Chunk
}

func (s *snapshot) record(a *sparse.Arena, x *sparse.Chunk) {
	c := a.Clone(x)
	//spardl:arena-ok diagnostic snapshot is read before the next Reset and never after
	s.last = c
}

// The socket handoff: a receive path that decodes a chunk out of
// arena-owned socket bytes and caches it in the endpoint outlives the
// epoch rotation — exactly the bug the transport's decode-then-consume
// contract forbids.
type endpointCache struct {
	lastPayload *sparse.Chunk
}

func (e *endpointCache) retainDecoded(a *sparse.Arena) {
	c := a.Get(32)
	e.lastPayload = c // want `arena chunk c escapes into field lastPayload`
}

// The sanctioned socket handoff: the reader side hands the chunk to the
// consumer over a queue whose pop is ordered before the epoch rotation
// that reclaims the storage (the transport's recvq-then-barrier contract),
// recorded as a reviewed exception — the analyzer cannot see FIFO-before-
// barrier ordering, the reviewer can.
func enqueueDecoded(a *sparse.Arena, recvq chan<- *sparse.Chunk) {
	c := a.Get(32)
	//spardl:arena-ok the consumer pops before the barrier rotation that reclaims this epoch
	recvq <- c
}
