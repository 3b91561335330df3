package sparse

import "sync"

// SlicePool recycles []T scratch whose lifetime is a single call. Values
// travel inside recycled box structs: a naive sync.Pool of pointers
// re-boxes (and so heap-allocates) on every Put, which would put one
// allocation back on paths the arena work removed them from; cycling the
// empty boxes through their own pool makes a steady-state Get/Put pair
// allocation-free. The zero value is ready to use, and hand-offs across
// goroutines are safe (sync.Pool orders them).
type SlicePool[T any] struct {
	vals  sync.Pool // holds *sliceBox[T] with a slice inside
	boxes sync.Pool // holds empty *sliceBox[T]
}

type sliceBox[T any] struct{ s []T }

// Get returns a length-n slice with arbitrary contents. Callers that need
// zeros must clear it; callers that overwrite the whole slice need not.
// Pair with Put. The makes below run only on a cold pool or capacity
// growth — the steady-state Get/Put pair is allocation-free by design.
//
//spardl:hotpath
func (p *SlicePool[T]) Get(n int) []T {
	b, _ := p.vals.Get().(*sliceBox[T])
	if b == nil {
		return make([]T, n)
	}
	s := b.s
	b.s = nil
	p.boxes.Put(b)
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Put hands a slice back for reuse. The caller must not retain any
// reference to it (including sub-slices or chunks aliasing it). The box
// allocation below runs only while the box pool warms up.
//
//spardl:hotpath
func (p *SlicePool[T]) Put(s []T) {
	b, _ := p.boxes.Get().(*sliceBox[T])
	if b == nil {
		b = new(sliceBox[T])
	}
	b.s = s
	p.vals.Put(b)
}

// densePool recycles call-scoped float32 scratch: the warm selection's
// candidate values (topk_warm.go). Quickselect scratch is the uint32 key
// pool in topk.go (selection compares bit keys, not values); longer-lived
// per-iteration vectors are persistent per-reducer state, and chunk-shaped
// scratch comes from the Arena.
var densePool SlicePool[float32]
