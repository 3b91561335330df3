package comm

import "sync/atomic"

// SetVecZeroCopy makes Send lend a Vec's memory to the link and CopyTo move
// a view into place with one memmove (on), or encode and decode them as a
// big-endian host must (off), whatever the host's byte order, and returns
// the function that restores the host's setting. Call it only while no
// fabric is running.
func SetVecZeroCopy(on bool) (restore func()) {
	was := vecZeroCopy
	vecZeroCopy = on
	return func() { vecZeroCopy = was }
}

// CountTokens makes a link endpoint's Link add one to n for every barrier
// token it delivers. Call it on the worker goroutine before the first
// SyncClock; any other endpoint panics.
func CountTokens(ep Endpoint, n *atomic.Int64) {
	e := ep.(*linkEndpoint)
	e.link = tokenCounter{e.link, n}
}

type tokenCounter struct {
	Link
	n *atomic.Int64
}

func (c tokenCounter) Deliver(to int, f Frame) error {
	if f.Token {
		c.n.Add(1)
	}
	return c.Link.Deliver(to, f)
}
