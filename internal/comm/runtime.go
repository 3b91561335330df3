package comm

import (
	"fmt"
	"sync"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/sparse"
)

// Frame is one unit a Link moves between two ranks: a serialized payload,
// or a SyncClock barrier token (Token set, no Buf). Accounted carries the
// sender's α-β byte accounting to the receiver (Recv's second result);
// len(Buf) is what the transport really moved.
type Frame struct {
	Buf       []byte
	Accounted int
	Token     bool
}

// Link is everything a transport has to be for NewLinkEndpoint's runtime
// to run on it. Delivery is FIFO per ordered (sender, receiver) pair and
// never applies backpressure — sends are eager on every fabric, so all of
// them execute the identical schedule. Deliver, Next and Rotate are called
// by the one goroutine that currently owns the endpoint (the worker, or
// its communication stream between Overlap and Join); Sever may be called
// from any goroutine at any time.
type Link interface {
	// Deliver queues f for rank to without blocking. On success ownership
	// of f.Buf (a FrameBufs buffer) passes to the link, which either hands
	// it to the receiver's Next or returns it to FrameBufs once written
	// out. The error names why the link is severed.
	Deliver(to int, f Frame) error
	// Next blocks until the next frame from rank from arrives. A non-nil
	// arena owns f.Buf for at least the current and the next Rotate epoch:
	// the payload is decoded in place and may alias it — registered codecs
	// through DecodeArena and, first among the built-in payloads, a Vec,
	// which is nothing but a view of those bytes. A nil arena means
	// f.Buf is a FrameBufs buffer the caller recycles after decoding. The
	// error names why the link is severed.
	Next(from int) (f Frame, arena *sparse.Arena, err error)
	// Rotate starts a new storage epoch. The barrier calls it once every
	// peer's token is in — tokens are FIFO behind data, so every frame of
	// the finished iteration has been received and decoded.
	Rotate()
	// Sever records cause as the fabric's root cause unless one is already
	// recorded, then fails the link: blocked and future Deliver/Next calls
	// here and at the peers return errors. It never waits for a goroutine
	// that may itself be blocked on the link. Idempotent.
	Sever(cause string)
	// Close releases the link after the worker is done: a graceful drain
	// when the link is healthy, a no-op after Sever.
	Close()
}

// Cause is a fabric generation's root-cause record: the first cause wins.
// Whatever starts a failure cascade — a worker panic, a communication-
// stream panic, a scheduled fault — fails the fabric through Fail, which
// notes the cause before it closes anything, so the secondary failures it
// provokes can never be mistaken for it. One Cause is shared by everything
// that fails together.
type Cause struct {
	mu sync.Mutex
	s  string
}

// Fail records cause unless an earlier one is already recorded, then runs
// poison — the fabric's closing code — which therefore always sees a
// recorded cause. It is the only way a fabric fails; poison must be safe to
// run more than once.
func (c *Cause) Fail(cause string, poison func()) {
	c.note(cause)
	poison()
}

// note records cause unless an earlier one is already recorded.
func (c *Cause) note(cause string) {
	c.mu.Lock()
	if c.s == "" {
		c.s = cause
	}
	c.mu.Unlock()
}

// String returns the recorded cause, "" while healthy.
func (c *Cause) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// FrameBufs recycles serialization buffers: Send marshals into one, and
// whoever consumes the bytes last — Recv after decoding, or a link's
// writer after the socket write — puts it back. A Vec view that cannot
// alias its frame keeps its copy of the body in one as well.
var FrameBufs sparse.SlicePool[byte]

// linkEndpoint implements Endpoint (and Node) for every wall-clock
// transport: real serialized bytes over a Link, measured wall seconds, and
// a real communication-stream goroutine.
type linkEndpoint struct {
	name    string     // prefixes panic messages ("livenet", "tcpnet")
	m       Membership // P, Rank and the stable ID failure causes name
	link    Link
	inj     chaos.Injector // nil = healthy; only its crash iteration is consulted
	onCrash func(iter int)
	start   time.Time
	iters   int // SyncClock barriers passed on this fabric (the crash ordinal)

	mu    sync.Mutex // guards stats (worker goroutine + stream goroutine)
	stats Stats

	lane *StreamLane
}

// NewLinkEndpoint returns the wall-clock runtime's endpoint for worker m
// over an established link; its clock starts now. name prefixes panic
// messages. inj, when non-nil, is the worker's fault schedule — the
// runtime consults only its crash iteration, link faults are the Link's —
// and onCrash, when non-nil, runs at a scheduled crash before the worker
// dies with chaos.Crashed (tcpnet flushes its outbound streams).
func NewLinkEndpoint(name string, link Link, m Membership, inj chaos.Injector, onCrash func(iter int)) Node {
	return &linkEndpoint{name: name, m: m, link: link, inj: inj, onCrash: onCrash, start: time.Now(),
		lane: NewStreamLane(link, m.ID)}
}

// Rank returns this worker's rank in [0, P).
func (e *linkEndpoint) Rank() int { return e.m.Rank }

// P returns the number of workers on the fabric.
func (e *linkEndpoint) P() int { return e.m.P }

// ID returns the worker's stable generation-0 identity.
func (e *linkEndpoint) ID() int { return e.m.ID }

// Clock returns wall-clock seconds since the endpoint came up.
func (e *linkEndpoint) Clock() float64 { return time.Since(e.start).Seconds() }

// Stats returns a copy of the worker's statistics.
func (e *linkEndpoint) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// ResetStats zeroes the statistics (the clock keeps running).
func (e *linkEndpoint) ResetStats() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats = Stats{}
}

// Compute books d seconds of modeled local work. Nothing sleeps: the
// algorithms' real selection/merge work already runs on this goroutine, so
// the charge is bookkeeping that keeps trainer statistics comparable with
// simnet's.
func (e *linkEndpoint) Compute(d float64) {
	if d < 0 {
		panic(e.name + ": negative compute time")
	}
	e.mu.Lock()
	e.stats.CompTime += d
	e.mu.Unlock()
}

func (e *linkEndpoint) checkPeer(op string, r int) {
	if r < 0 || r >= e.m.P || r == e.m.Rank {
		panic(fmt.Sprintf("%s: worker %d cannot %s worker %d", e.name, e.m.Rank, op, r))
	}
}

// poisoned is the panic every operation on a severed link dies with.
func (e *linkEndpoint) poisoned(op string, err error) string {
	return fmt.Sprintf("%s: %s on poisoned fabric: %v", e.name, op, err)
}

// Send serializes payload through the payload registry and hands the bytes
// to the link. The accounted α-β size rides along for the receiver; stats
// count the real serialized size. A dense vector's frame is reserved whole
// (its size is known), so encoding it never regrows the buffer.
func (e *linkEndpoint) Send(to int, payload any, bytes int) {
	e.checkPeer("send to", to)
	reserve := 0
	if v, ok := payload.(Vec); ok {
		reserve = vecFrameMax(len(v.F))
	}
	buf := AppendPayload(FrameBufs.Get(reserve)[:0], payload)
	e.mu.Lock()
	e.stats.MsgsSent++
	e.stats.BytesSent += int64(len(buf))
	e.mu.Unlock()
	if err := e.link.Deliver(to, Frame{Buf: buf, Accounted: bytes}); err != nil {
		FrameBufs.Put(buf)
		panic(e.poisoned("send", err))
	}
}

// Recv blocks until a frame from worker `from` arrives, decodes it, and
// returns the payload plus the sender's accounted byte count. The blocking
// wait and the decode are both measured as communication wall time. A lost
// peer surfaces here as a panic with the recorded cause — never a hang.
func (e *linkEndpoint) Recv(from int) (payload any, bytes int) {
	e.checkPeer("recv from", from)
	t0 := time.Now()
	f, arena, err := e.link.Next(from)
	if err != nil {
		panic(e.poisoned("recv", err))
	}
	if f.Token {
		panic(fmt.Sprintf("%s: worker %d sent a barrier token where data was expected (schedule mismatch)", e.name, from))
	}
	// With an arena, f.Buf is storage the link filled in place and the
	// decoded value may alias it; both stay readable until the rotation
	// after next, which outlives every use the reduction schedule makes of
	// the value (the same argument simnet makes for sender-arena refs).
	v, derr := UnmarshalPayloadArena(arena, f.Buf)
	if derr != nil {
		panic(fmt.Sprintf("%s: decode from worker %d failed: %v", e.name, from, derr))
	}
	n := len(f.Buf)
	if arena == nil {
		FrameBufs.Put(f.Buf)
	}
	elapsed := time.Since(t0).Seconds()
	e.mu.Lock()
	e.stats.Rounds++
	e.stats.BytesRecv += int64(n)
	e.stats.CommTime += elapsed
	e.mu.Unlock()
	return v, f.Accounted
}

// SendRecv performs the paired exchange used by recursive doubling.
func (e *linkEndpoint) SendRecv(peer int, payload any, bytes int) (got any, gotBytes int) {
	e.Send(peer, payload, bytes)
	return e.Recv(peer)
}

// SyncClock barriers all workers: each sends a token to every peer and
// waits for every peer's token, without touching statistics — the live
// analogue of simnet's cost-free clock alignment between iterations.
//
// The barrier is also where scheduled crashes fire: a worker whose
// injector names this iteration dies before sending any token, so no peer
// ever passes this barrier — which is what makes the resume point of an
// elastic recovery uniform across survivors (each one's own passed-barrier
// count is provably the last globally completed iteration).
func (e *linkEndpoint) SyncClock() {
	if e.inj != nil && e.inj.CrashIter() == e.iters {
		if e.onCrash != nil {
			e.onCrash(e.iters)
		}
		panic(chaos.Crashed{ID: e.m.ID, Iter: e.iters})
	}
	for r := 0; r < e.m.P; r++ {
		if r != e.m.Rank {
			if err := e.link.Deliver(r, Frame{Token: true}); err != nil {
				panic(e.poisoned("barrier", err))
			}
		}
	}
	for r := 0; r < e.m.P; r++ {
		if r == e.m.Rank {
			continue
		}
		f, _, err := e.link.Next(r)
		if err != nil {
			panic(e.poisoned("barrier", err))
		}
		if !f.Token {
			panic(fmt.Sprintf("%s: worker %d sent data where a barrier token was expected (schedule mismatch)", e.name, r))
		}
	}
	e.link.Rotate()
	e.iters++
}

// Overlap enqueues body on the worker's communication stream — a real
// goroutine that executes overlap bodies in launch order — so the caller's
// subsequent computation genuinely runs concurrently with the stream's
// serialization, transport traffic and decoding.
func (e *linkEndpoint) Overlap(body func(Endpoint)) {
	if !e.lane.Launch(func() { body(streamEndpoint{e}) }) {
		panic(e.name + ": Overlap after shutdown")
	}
}

// Join blocks until the communication stream has drained, then books the
// measured wait as exposed communication and the remainder of the stream's
// busy time as OverlapSaved. A stream-body panic resurfaces here, on the
// worker's own goroutine.
func (e *linkEndpoint) Join() {
	exposed, busy, err := e.lane.Join()
	if busy > 0 {
		saved := busy - exposed
		if saved < 0 {
			saved = 0
		}
		e.mu.Lock()
		e.stats.ExposedComm += exposed.Seconds()
		e.stats.OverlapSaved += saved.Seconds()
		e.mu.Unlock()
	}
	if err != nil {
		panic(err)
	}
}

// Abort severs the link with cause and reaps the communication stream. It
// must run on the worker goroutine: it waits for the stream, so the
// stream lane, which holds only the link, severs it directly instead.
func (e *linkEndpoint) Abort(cause string) {
	e.link.Sever(cause)
	e.lane.Shutdown()
}

// Close releases the endpoint once the worker body is done: the link
// drains gracefully (a no-op after Abort) and the stream goroutine is
// reaped.
func (e *linkEndpoint) Close() {
	e.link.Close()
	e.lane.Shutdown()
}

// streamEndpoint is the view handed to Overlap bodies. It is the owning
// endpoint minus stream control: detecting nesting through the type
// (rather than a flag) keeps the main and stream goroutines free of shared
// mutable state — the main lane may legally launch further Overlap bodies
// while an earlier one is still executing.
type streamEndpoint struct{ *linkEndpoint }

func (s streamEndpoint) Join() { panic(s.name + ": Join inside Overlap") }
func (s streamEndpoint) Overlap(func(Endpoint)) {
	panic(s.name + ": Overlap calls cannot nest")
}
