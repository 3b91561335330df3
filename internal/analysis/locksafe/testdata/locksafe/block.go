package lockfix

import (
	"sync"

	"spardl/internal/comm"
)

type mailbox struct {
	mu sync.Mutex
	ch chan int
}

// post sends on an unbuffered channel while holding the mutex: one slow
// receiver wedges every contender.
func (m *mailbox) post(v int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ch <- v // want `channel send while holding m\.mu`
}

// drain blocks on the channel — a transitive blocker for callers.
func (m *mailbox) drain() {
	for range m.ch {
	}
}

// sweep calls the blocker with the lock held.
func (m *mailbox) sweep() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drain() // want `drain \(may block\) while holding m\.mu`
}

// postSafe snapshots under the lock and blocks outside it.
func (m *mailbox) postSafe(v int) {
	m.mu.Lock()
	full := len(m.ch) == cap(m.ch)
	m.mu.Unlock()
	if full {
		return
	}
	m.ch <- v
}

// spawn only launches the drainer; the goroutine's blocking is not its own.
func (m *mailbox) spawn() {
	go func() {
		for range m.ch {
		}
	}()
}

// kick starts the drainer under the lock, which never waits for it.
func (m *mailbox) kick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spawn()
}

func (m *mailbox) consume(int) {}

// The caller evaluates each of these receives under m.mu: the statement
// of a labeled loop, a switch tag, a for loop's post statement, and the
// arguments of go and defer calls.
func (m *mailbox) labeled() {
	m.mu.Lock()
	defer m.mu.Unlock()
loop:
	for {
		<-m.ch // want `channel receive while holding m\.mu`
		break loop
	}
}

func (m *mailbox) tag() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch <-m.ch { // want `channel receive while holding m\.mu`
	case 0:
		return true
	}
	return false
}

func (m *mailbox) forPost() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < 3; i += <-m.ch { // want `channel receive while holding m\.mu`
	}
}

func (m *mailbox) goArg() {
	m.mu.Lock()
	defer m.mu.Unlock()
	go m.consume(<-m.ch) // want `channel receive while holding m\.mu`
}

func (m *mailbox) deferArg() {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.consume(<-m.ch) // want `channel receive while holding m\.mu`
}

// relay pops another package's queue under its own lock: Pop parks until
// something is pushed.
func (m *mailbox) relay(q *comm.Fifo[int]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q.Pop() // want `Pop \(may block\) while holding m\.mu`
}

type latch struct {
	mu   sync.Mutex
	cond *sync.Cond
	done bool
}

// await is a second Cond waiter, a blocker no other package would see.
func (l *latch) await() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.done {
		l.cond.Wait() // want `sync\.Cond\.Wait outside comm\.Fifo\.Pop`
	}
}
