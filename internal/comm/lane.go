package comm

import (
	"fmt"
	"sync"
	"time"
)

// Fifo is an unbounded FIFO with blocking Pop, the one queue type every
// fabric is built from. Message queues use it to mirror eager sends — no
// transport makes a sender wait for the receiving worker, so every backend
// executes the identical schedule — and the communication stream uses it
// for its task lane, so Overlap never blocks the main goroutine no matter
// how many buckets launch before a Join. A closed Fifo still drains its
// remaining items.
type Fifo[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	head   int // consumed prefix; compacted when the queue drains
	closed bool
}

// NewFifo returns an empty open queue.
func NewFifo[T any]() *Fifo[T] {
	q := &Fifo[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push reports false when the queue is closed instead of enqueuing.
func (q *Fifo[T]) Push(x T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, x)
	q.cond.Signal()
	return true
}

// Pop blocks until an item is available or the queue is closed empty
// (reported as ok = false).
func (q *Fifo[T]) Pop() (x T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	return q.take()
}

// TryPop returns immediately: ok = false when no item is ready right now
// (whether or not more are coming).
func (q *Fifo[T]) TryPop() (x T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.items) {
		return x, false
	}
	return q.take()
}

// take pops under q.mu; the caller holds the lock.
func (q *Fifo[T]) take() (x T, ok bool) {
	if q.head == len(q.items) {
		return x, false
	}
	x = q.items[q.head]
	var zero T
	q.items[q.head] = zero // drop the payload reference
	q.head++
	if q.head == len(q.items) {
		// Drained: rewind so the backing array is reused forever instead
		// of marching forward and reallocating on every refill.
		q.items = q.items[:0]
		q.head = 0
	}
	return x, true
}

// Close marks the queue closed and wakes every blocked Pop. Idempotent.
func (q *Fifo[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// StreamLane is the per-worker communication stream behind Overlap/Join:
// a dedicated goroutine that executes enqueued bodies in launch order, so
// the worker's subsequent computation genuinely runs concurrently with
// serialization, transport traffic and decoding. The subtle parts — the
// busy/exposed accounting split, and the panic→sever ordering that keeps
// a dead stream from leaving the fleet blocked on queues that will never
// be fed — exist only here. The one user is the link endpoint
// (NewLinkEndpoint), which hands the lane its Link.
//
// Concurrency contract: Launch, Join and Shutdown are called from the one
// worker goroutine that owns the endpoint; the lane's own goroutine runs
// the bodies. Bodies may call Launch-free endpoint operations (Send, Recv,
// Compute); nesting is rejected by the streamEndpoint view.
type StreamLane struct {
	// link is severed ON the stream goroutine after a body panics, once the
	// panic value is parked for Join. Severing unblocks the worker's main
	// goroutine and its peers without waiting for the stream itself; the
	// lane holds nothing that could wait for it (the endpoint's Abort does,
	// and calling it from inside the stream would deadlock).
	link severer
	id   int // the worker's stable ID, named in the sever cause

	tasks   *Fifo[func()]
	done    chan struct{}
	pending sync.WaitGroup

	mu   sync.Mutex
	busy time.Duration // total body execution time since the last Join
	err  any           // first body panic since the last Join
}

// severer is all a stream lane may do to its fabric: Link.Sever, which
// never waits for a goroutine.
type severer interface {
	Sever(cause string)
}

// NewStreamLane returns a lane whose bodies sever link when they panic,
// naming worker id and the panic as the cause. The stream goroutine itself
// starts lazily on the first Launch, so serial schedules never pay for one.
func NewStreamLane(link severer, id int) *StreamLane {
	return &StreamLane{link: link, id: id}
}

// Launch enqueues body on the stream, starting the stream goroutine on
// first use. It reports false after Shutdown instead of enqueuing (the
// endpoint turns that into its "Overlap after shutdown" panic).
func (l *StreamLane) Launch(body func()) bool {
	if l.tasks == nil {
		l.tasks = NewFifo[func()]()
		l.done = make(chan struct{})
		go l.run()
	}
	l.pending.Add(1)
	ok := l.tasks.Push(func() {
		defer l.pending.Done()
		defer func() {
			if r := recover(); r != nil {
				l.mu.Lock()
				if l.err == nil {
					l.err = r
				}
				l.mu.Unlock()
				// Record the root cause before unblocking peers (and
				// possibly our own main goroutine) waiting on queues that
				// will never be fed: the cascade of poisoned-fabric panics
				// the sever triggers must not mask the original failure.
				l.link.Sever(fmt.Sprintf("worker %d (comm stream): %v", l.id, r))
			}
		}()
		t0 := time.Now()
		body()
		busy := time.Since(t0)
		l.mu.Lock()
		l.busy += busy
		l.mu.Unlock()
	})
	if !ok {
		l.pending.Done()
	}
	return ok
}

// run executes bodies in launch order until Shutdown closes the task lane.
func (l *StreamLane) run() {
	defer close(l.done)
	for {
		fn, ok := l.tasks.Pop()
		if !ok {
			return
		}
		fn()
	}
}

// Join blocks until the stream has drained and returns the measured wait
// (the worker's exposed communication), the stream's total busy time since
// the previous Join (its excess over the wait ran hidden under main-lane
// work — the endpoint credits it to OverlapSaved), and the first body panic,
// if any (cleared; the endpoint re-panics it on the worker goroutine). Join
// with no pending work returns zeros, so serial schedules share the
// pipelined code path.
func (l *StreamLane) Join() (exposed, busy time.Duration, err any) {
	t0 := time.Now()
	l.pending.Wait()
	exposed = time.Since(t0)
	l.mu.Lock()
	err = l.err
	l.err = nil
	busy = l.busy
	l.busy = 0
	l.mu.Unlock()
	return exposed, busy, err
}

// Shutdown stops the stream goroutine, if one started, and waits for it
// to exit. Subsequent Launch calls report false.
func (l *StreamLane) Shutdown() {
	if l.tasks == nil {
		return
	}
	l.tasks.Close()
	<-l.done
}
