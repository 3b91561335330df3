package simnet

import (
	"fmt"

	"spardl/internal/comm"
)

// Stats is the α-β accounting for one worker: the backend-neutral comm
// statistics, with every time field measured in virtual seconds. CommTime
// and CompTime split the virtual clock's advancement into communication
// (α-β charges inside Recv, including waiting for the sender) and local
// computation (Compute calls); their sum can be less than the clock
// advance when a worker idles waiting for a peer. OverlapSaved is exactly
// the clock time a serialized execution of the same operations (main-clock
// advance plus the stream's busy time, back to back) would have added:
// serialized − pipelined ≡ OverlapSaved at every Join.
type Stats = comm.Stats

// Endpoint is worker rank's handle on the fabric. It carries the worker's
// virtual clock and traffic statistics, and implements comm.Endpoint.
// Endpoints are not safe for concurrent use; each belongs to exactly one
// worker goroutine.
type Endpoint struct {
	fabric *Fabric
	rank   int
	clock  float64
	stats  Stats

	// Communication-stream state (Overlap/Join). commClock is the stream's
	// own virtual clock; commBusy is its accumulated busy time since the
	// last Join; overlapping guards against nesting.
	commClock   float64
	commBusy    float64
	overlapping bool
}

var _ comm.Node = (*Endpoint)(nil)

// Rank returns this worker's rank in [0, P).
func (e *Endpoint) Rank() int { return e.rank }

// ID implements comm.Node: simulated fleets never shrink, so a worker's
// stable identity is its rank.
func (e *Endpoint) ID() int { return e.rank }

// Abort implements comm.Node by poisoning the fabric.
func (e *Endpoint) Abort(cause string) { e.fabric.Poison(cause) }

// Close implements comm.Node; a simulated endpoint holds nothing to
// release, so fabrics and endpoints may be reused across runs.
func (e *Endpoint) Close() {}

// P returns the number of workers on the fabric.
func (e *Endpoint) P() int { return e.fabric.p }

// Clock returns the worker's current virtual time in seconds.
func (e *Endpoint) Clock() float64 { return e.clock }

// Stats returns a copy of the worker's traffic statistics.
func (e *Endpoint) Stats() Stats { return e.stats }

// ResetStats zeroes traffic statistics (the clock keeps running). The
// experiment harness uses this to measure steady-state iterations without
// warm-up noise.
func (e *Endpoint) ResetStats() { e.stats = Stats{} }

// Compute advances the worker's virtual clock by d seconds of local work
// (forward/backward pass, selection, summation).
func (e *Endpoint) Compute(d float64) {
	if d < 0 {
		panic("simnet: negative compute time")
	}
	e.clock += d
	e.stats.CompTime += d
}

// Send transmits payload to worker `to`, accounting `bytes` on the wire.
// Sends are non-blocking and cost nothing at the sender: the α-β model
// charges a transmission entirely at its receiver. The payload is handed
// over by reference and the sender must not mutate it afterwards — except a
// comm.Vec, which is serialized here into the pooled view Recv hands over,
// so its sender may overwrite it at once.
func (e *Endpoint) Send(to int, payload any, bytes int) {
	if to == e.rank {
		panic(fmt.Sprintf("simnet: worker %d sending to itself", e.rank))
	}
	if v, ok := payload.(comm.Vec); ok {
		payload = v.Detach()
	}
	e.stats.MsgsSent++
	e.stats.BytesSent += int64(bytes)
	e.fabric.push(message{from: e.rank, to: to, payload: payload, bytes: bytes, sentAt: e.clock})
}

// Recv blocks until a message from worker `from` arrives, then advances the
// virtual clock: clock = max(clock, senderClockAtSend) + α + β·bytes.
func (e *Endpoint) Recv(from int) (payload any, bytes int) {
	m := e.fabric.pop(from, e.rank)
	before := e.clock
	if m.sentAt > e.clock {
		e.clock = m.sentAt
	}
	prof := e.fabric.profile
	e.clock += prof.Alpha + prof.Beta*float64(m.bytes)
	e.stats.Rounds++
	e.stats.BytesRecv += int64(m.bytes)
	e.stats.CommTime += e.clock - before
	return m.payload, m.bytes
}

// SendRecv performs the paired exchange used by recursive doubling: send to
// peer, then receive from the same peer. With full-duplex links the α-β
// cost of the round is α + β·(received bytes), which is exactly what the
// underlying Recv charges.
func (e *Endpoint) SendRecv(peer int, payload any, bytes int) (got any, gotBytes int) {
	e.Send(peer, payload, bytes)
	return e.Recv(peer)
}

// Overlap runs body on the worker's communication stream: every charge
// inside body — Recv's α-β costs, Compute calls from selection and merging —
// advances a separate comm clock instead of the main clock, so subsequent
// Compute on the main clock models computation proceeding concurrently with
// the communication. The stream cannot start before the moment it is
// launched (its clock is first lifted to the main clock) and operations on
// it are otherwise identical: sends stamp the comm clock, receives wait for
// the sender's stamp. Overlap calls may not nest; all workers must issue
// their Overlap bodies in the same relative order, exactly as they would
// order blocking collectives.
func (e *Endpoint) Overlap(body func(comm.Endpoint)) {
	if e.overlapping {
		panic("simnet: Overlap calls cannot nest")
	}
	if e.commClock < e.clock {
		e.commClock = e.clock // the stream starts no earlier than its launch
	}
	main := e.clock
	start := e.commClock
	e.clock = e.commClock
	e.overlapping = true
	defer func() {
		e.overlapping = false
		e.commClock = e.clock
		e.commBusy += e.clock - start
		e.clock = main
	}()
	body(e)
}

// Join merges the communication stream back into the main clock and books
// the overlap accounting: the stream time that outlived the main clock is
// exposed communication (it delays the worker), the rest was hidden under
// computation and is credited to OverlapSaved. After Join the two clocks
// coincide; the trainer calls it once per iteration, before SyncClock.
// Join outside any Overlap session is a no-op, so serial schedules can
// share the pipelined code path.
func (e *Endpoint) Join() {
	if e.overlapping {
		panic("simnet: Join inside Overlap")
	}
	exposed := 0.0
	if e.commClock > e.clock {
		exposed = e.commClock - e.clock
		e.clock = e.commClock
	}
	e.stats.ExposedComm += exposed
	e.stats.OverlapSaved += e.commBusy - exposed
	e.commClock = e.clock
	e.commBusy = 0
}

// SyncClock exchanges clock values with all workers and sets every clock to
// the maximum, *without* charging α-β costs. The trainer calls this between
// iterations to model the implicit synchronization of S-SGD (no worker can
// start iteration t+1 before the slowest finishes t, because all-reduce
// already synchronized them; collectives that leave clocks slightly skewed
// are realigned here).
func (e *Endpoint) SyncClock() {
	p := e.fabric.p
	if p == 1 {
		return
	}
	for to := 0; to < p; to++ {
		if to != e.rank {
			e.fabric.push(message{from: e.rank, to: to, payload: e.clock, sentAt: e.clock})
		}
	}
	for from := 0; from < p; from++ {
		if from == e.rank {
			continue
		}
		if t := e.fabric.pop(from, e.rank).payload.(float64); t > e.clock {
			e.clock = t
		}
	}
}
