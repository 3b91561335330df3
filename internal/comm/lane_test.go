package comm

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

// within runs f on a goroutine of its own and waits at most d for it to
// return. A call still blocked after d is a deadlock — a lock held across a
// wait — and its wedged goroutines leave the rest of the package's tests
// nothing to stand on, so within ends the test binary: a panic naming the
// test, with every goroutine's stack, instead of go test's -timeout minutes
// later. A panic in f fails the test with f's stack. f must not call t's
// Fatal methods.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan string, 1) // f's panic and stack, if it panicked
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Sprintf("%v\n%s", r, debug.Stack())
			}
			close(done)
		}()
		f()
	}()
	select {
	case p, panicked := <-done:
		if panicked {
			t.Fatalf("panic: %s", p)
		}
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("%s: still blocked after %v; goroutines:\n%s", t.Name(), d, buf[:runtime.Stack(buf, true)]))
	}
}

// guard is how long a lane or queue call that must not wait may take.
const guard = 10 * time.Second

func TestFifoOrderAndDrainAfterClose(t *testing.T) {
	q := NewFifo[int]()
	for i := 0; i < 100; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d on open queue refused", i)
		}
	}
	q.Close()
	if q.Push(100) {
		t.Fatal("push accepted after Close")
	}
	for i := 0; i < 100; i++ {
		x, ok := q.Pop()
		if !ok || x != i {
			t.Fatalf("pop %d: got (%d, %v)", i, x, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on a drained closed queue reported an item")
	}
}

func TestFifoTryPopNeverBlocks(t *testing.T) {
	q := NewFifo[string]()
	var ok bool
	within(t, guard, func() { _, ok = q.TryPop() })
	if ok {
		t.Fatal("TryPop on an empty open queue reported an item")
	}
	q.Push("x")
	if x, ok := q.TryPop(); !ok || x != "x" {
		t.Fatalf("TryPop: got (%q, %v)", x, ok)
	}
}

func TestFifoCloseWakesBlockedPop(t *testing.T) {
	q := NewFifo[int]()
	done := make(chan bool)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond) // let the Pop block
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Pop unblocked by Close reported an item")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pop still blocked after Close")
	}
}

// TestFifoReusesBackingArray pins the drain-compaction behavior: a queue
// that is filled and drained repeatedly must not march its consumed prefix
// forward forever (the ring-rewind keeps steady-state pushes
// allocation-free, which the transport hot paths rely on).
func TestFifoReusesBackingArray(t *testing.T) {
	q := NewFifo[int]()
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			q.Push(i)
		}
		for i := 0; i < 8; i++ {
			q.TryPop()
		}
	}
	q.mu.Lock()
	head, length, capacity := q.head, len(q.items), cap(q.items)
	q.mu.Unlock()
	if head != 0 || length != 0 {
		t.Fatalf("drained queue not rewound: head=%d len=%d", head, length)
	}
	if capacity > 8 {
		t.Fatalf("backing array grew to %d across drain cycles; rewind is not reusing it", capacity)
	}
}

// severFunc adapts a function to the lane's severer.
type severFunc func(cause string)

func (f severFunc) Sever(cause string) { f(cause) }

func TestStreamLaneRunsBodiesInOrder(t *testing.T) {
	l := NewStreamLane(severFunc(func(string) {}), 0)
	var mu sync.Mutex
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		if !l.Launch(func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		}) {
			t.Fatalf("launch %d refused before shutdown", i)
		}
	}
	var exposed, busy time.Duration
	var err any
	within(t, guard, func() { exposed, busy, err = l.Join() })
	if err != nil {
		t.Fatalf("join returned err %v", err)
	}
	if exposed < 0 || busy < 0 {
		t.Fatalf("negative accounting: exposed=%v busy=%v", exposed, busy)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("bodies ran out of launch order: got[%d] = %d", i, v)
		}
	}
	within(t, guard, l.Shutdown)
	if l.Launch(func() {}) {
		t.Fatal("launch accepted after Shutdown")
	}
}

// TestStreamLanePanicOrdering pins the sever protocol: the panic value is
// recorded for Join before the link is severed (the sever's cascade must
// not mask the root cause), the lane severs exactly once with a cause
// naming the worker and the panic, and Join clears the error for the next
// round. Every Sever call is recorded without blocking the stream, so a
// lane that severs too early fails here instead of hanging Join.
func TestStreamLanePanicOrdering(t *testing.T) {
	type event struct {
		cause    string
		recorded bool
	}
	var mu sync.Mutex
	var events []event
	var l *StreamLane
	l = NewStreamLane(severFunc(func(cause string) {
		l.mu.Lock()
		recorded := l.err != nil
		l.mu.Unlock()
		mu.Lock()
		events = append(events, event{cause: cause, recorded: recorded})
		mu.Unlock()
	}), 3)
	l.Launch(func() { panic("boom") })
	var err any
	within(t, guard, func() { _, _, err = l.Join() })
	if err != "boom" {
		t.Fatalf("Join err = %v, want boom", err)
	}
	mu.Lock()
	got := append([]event(nil), events...)
	mu.Unlock()
	for _, ev := range got {
		if !ev.recorded {
			t.Fatalf("link severed before the panic was recorded: a poison cascade could mask the root cause (calls: %+v)", got)
		}
	}
	if len(got) != 1 || got[0].cause != "worker 3 (comm stream): boom" {
		t.Fatalf("Sever calls %+v, want one with cause %q", got, "worker 3 (comm stream): boom")
	}
	within(t, guard, func() { _, _, err = l.Join() })
	if err != nil {
		t.Fatalf("second Join returned stale err %v", err)
	}
	within(t, guard, l.Shutdown)
}

// TestCauseFailNotesBeforePoison pins the one way a fabric fails: poison
// already sees its cause recorded, and a later Fail keeps the first cause
// yet still runs its own poison, so every fabric's Sever stays idempotent.
func TestCauseFailNotesBeforePoison(t *testing.T) {
	var c Cause
	if got := c.String(); got != "" {
		t.Fatalf("healthy Cause = %q, want empty", got)
	}
	var seen []string // the cause each poison saw recorded
	within(t, guard, func() {
		c.Fail("first", func() { seen = append(seen, c.String()) })
		c.Fail("second", func() { seen = append(seen, c.String()) })
	})
	if len(seen) != 2 {
		t.Fatalf("poison ran %d times over two Fails, want 2", len(seen))
	}
	if seen[0] != "first" {
		t.Fatalf("poison ran with cause %q recorded, want %q", seen[0], "first")
	}
	if seen[1] != "first" {
		t.Fatalf("a second Fail replaced the root cause: %q", seen[1])
	}
}

// TestStreamLanePoisonFirstCauseWinsUnderCascade models the full backend
// cascade around a stream-body panic, under the race detector: the lane
// severs its link, whose Sever is Cause.Fail around closing the queues (as
// livenet's and tcpnet's are); that unblocks the worker's main goroutine,
// which fails on the poisoned queue and fails the fabric again with its
// cascade cause, concurrently with the stream goroutine still unwinding.
// The invariant pinned here is the one the whole failure model rests on:
// because StreamLane severs — which records — BEFORE the panic unblocks
// anyone, the recorded cause is always the stream body's root cause, never
// the cascade's, on every interleaving.
func TestStreamLanePoisonFirstCauseWinsUnderCascade(t *testing.T) {
	const boom = "worker 3 exploded"
	const root = "worker 3 (comm stream): " + boom
	for iter := 0; iter < 200; iter++ {
		var cause Cause
		q := NewFifo[int]()
		l := NewStreamLane(severFunc(func(c string) { cause.Fail(c, q.Close) }), 3)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the worker's main goroutine, blocked mid-collective
			defer wg.Done()
			if _, ok := q.Pop(); !ok {
				// Its recover path aborts with the cascade cause, racing
				// the stream goroutine's own unwinding.
				cause.Fail("cascade: recv on poisoned fabric", q.Close)
			}
		}()
		l.Launch(func() { panic(boom) })
		var err any
		within(t, guard, func() {
			_, _, err = l.Join()
			wg.Wait()
			l.Shutdown()
		})
		if err != boom {
			t.Fatalf("iter %d: Join err = %v, want the body's panic", iter, err)
		}
		if got := cause.String(); got != root {
			t.Fatalf("iter %d: recorded cause %q; the cascade masked the root", iter, got)
		}
	}
}

// TestStreamLaneJoinWithoutLaunch pins the serial-schedule path: a Join
// with no pending work returns zeros without ever starting the goroutine.
func TestStreamLaneJoinWithoutLaunch(t *testing.T) {
	l := NewStreamLane(severFunc(func(string) {}), 0)
	var busy time.Duration
	var err any
	within(t, guard, func() { _, busy, err = l.Join() })
	if busy != 0 || err != nil {
		t.Fatalf("idle Join returned busy=%v err=%v", busy, err)
	}
	if l.tasks != nil {
		t.Fatal("idle Join started the stream goroutine")
	}
	within(t, guard, l.Shutdown) // must be a no-op without a started stream
}
