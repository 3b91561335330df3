// Package comm is the communication layer every collective in this
// repository is written against, and the one runtime that implements it
// for every wall-clock transport.
//
// # Contract
//
// Endpoint is one worker's handle on a P-worker fabric; Backend runs P
// workers against one. ElasticBackend adds fabric generations: a poisoned
// fabric is classified, departed workers leave, and the survivors re-form
// (RunElastic — the one recovery policy, see elastic.go).
//
// # Runtime and Link
//
// Two things implement Endpoint. Package simnet keeps its own: its Recv
// and Overlap *are* the α-β cost model (virtual clocks, payloads by
// reference — except a dense vector, Vec, which every fabric copies or
// serializes inside Send so its sender may overwrite it immediately).
// Everything that runs on the wall clock shares the link
// endpoint (NewLinkEndpoint), which owns statistics, Compute, Send/Recv marshalling of the
// closed payload set (payload.go), the Overlap/Join communication stream (StreamLane and
// the one nesting-rejecting stream view), and the SyncClock token barrier
// with its scheduled-crash ordinal and storage rotation. It is written
// against Link — deliver these bytes to rank r, hand me the next frame
// from rank r and the storage to decode it into, sever with this cause —
// so a transport is only its Link: livenet is P² in-memory byte queues
// with a fault injector at the queue boundary, tcpnet is framed sockets
// behind a rendezvous. RunWorkers is the one worker run loop (recover,
// record the cause, poison, report) and serves simnet too.
//
// # Link model
//
// Profile.Arrive is the one α-β receive rule. simnet's Recv charges it to
// a virtual clock; Shaped makes a link endpoint's Recv park until it.
//
// # Determinism contract
//
// The algorithms drive all ordering: every Recv names its source rank, and
// per-(sender, receiver) pair delivery is FIFO on every fabric. A reducer
// therefore computes bit-identical gradients on simnet, livenet and tcpnet
// — the cross-backend equivalence suites pin this — while the *meaning* of
// the clock and time statistics differs (virtual α-β seconds vs. measured
// wall seconds).
//
// # Concurrency contract
//
// An Endpoint belongs to exactly one worker goroutine. Overlap bodies run
// on the worker's communication stream — a second logical (simnet) or real
// (link endpoint) execution lane — and may not nest; all workers must issue
// their Overlap bodies in the same relative order, exactly as they would
// order blocking collectives. Between Overlap and Join the main goroutine
// must not Send or Recv outside the stream.
//
// # Failure contract
//
// A fabric fails as a whole and names why: the first cause recorded in the
// generation's Cause wins, and it is recorded before anything that could
// provoke a secondary failure (closing queues, closing sockets) happens —
// every fabric fails through Cause.Fail, whose closing code is an argument
// it runs only after the note.
// Every blocked or later Send, Recv and SyncClock then panics with that
// cause instead of hanging.
package comm

// Stats accumulates one worker's traffic and time accounting. Field
// semantics per implementation:
//
//   - simnet: BytesSent/BytesRecv are the α-β accounted sizes; CommTime,
//     CompTime, ExposedComm and OverlapSaved are virtual seconds.
//   - link endpoint: BytesSent/BytesRecv are the real serialized sizes the
//     link moved; CommTime, ExposedComm and OverlapSaved are measured wall
//     seconds; CompTime still accumulates the modeled Compute charges
//     (nothing sleeps — the algorithms' real selection/merge work runs for
//     real on the worker goroutine instead).
type Stats struct {
	Rounds    int   // number of Recv operations (the "x" in xα + yβ)
	BytesRecv int64 // total received volume (the "y", in bytes)
	BytesSent int64
	MsgsSent  int
	// CommTime and CompTime split a worker's time into communication
	// (inside Recv, including waiting for the sender) and local
	// computation (Compute calls).
	CommTime float64
	CompTime float64
	// ExposedComm and OverlapSaved account for the communication stream
	// (Overlap/Join): at each Join, the part of the stream's busy time that
	// outlived the main lane is exposed — it delays the worker exactly as
	// serialized communication would — while the remainder ran hidden under
	// computation and is credited to OverlapSaved.
	ExposedComm  float64
	OverlapSaved float64
}

// Endpoint is one worker's handle on a P-worker fabric. Implementations
// are not safe for concurrent use by multiple worker goroutines; see the
// package concurrency contract for the Overlap stream.
type Endpoint interface {
	// Rank returns this worker's rank in [0, P).
	Rank() int
	// P returns the number of workers on the fabric.
	P() int
	// Clock returns the worker's current time in seconds: virtual α-β
	// time on simnet, wall-clock seconds since the fabric came up otherwise.
	Clock() float64
	// Stats returns a copy of the worker's statistics.
	Stats() Stats
	// ResetStats zeroes the statistics (the clock keeps running).
	ResetStats()
	// Compute charges d seconds of modeled local work.
	Compute(d float64)
	// Send transmits payload to worker `to`, accounting `bytes` on the
	// wire. Sends never wait for the receiver (a socket send may wait for
	// the kernel). On simnet the payload is handed over by reference (the
	// sender must not mutate it afterwards); a link endpoint serializes it
	// into a pooled buffer at the call. The exception is a Vec: every
	// fabric copies, serializes or writes out its elements at the call, so
	// the caller may overwrite them as soon as Send returns.
	Send(to int, payload any, bytes int)
	// Recv blocks until a message from worker `from` arrives and returns
	// the payload and the sender's accounted byte count.
	Recv(from int) (payload any, bytes int)
	// SendRecv performs the paired exchange used by recursive doubling:
	// send to peer, then receive from the same peer.
	SendRecv(peer int, payload any, bytes int) (got any, gotBytes int)
	// Overlap runs body on the worker's communication stream so that
	// subsequent main-lane Compute models (simnet) or is (link endpoint)
	// computation proceeding concurrently with the communication.
	// Overlap calls may not nest.
	Overlap(body func(Endpoint))
	// Join blocks until the communication stream has drained and books the
	// exposed/overlapped split into Stats. Join with no pending Overlap
	// work is a no-op, so serial schedules share the pipelined code path.
	Join()
	// SyncClock barriers all workers between iterations without charging
	// communication costs, modeling the implicit synchronization of S-SGD.
	SyncClock()
}

// Backend runs worker functions against one fabric implementation.
type Backend interface {
	// Name identifies the backend in experiment tables (e.g. "simnet",
	// "livenet").
	Name() string
	// Run executes worker(rank, ep) on p concurrent workers over a fresh
	// fabric, waits for all of them, and reports per-worker costs. If any
	// worker panics, Run poisons the fabric (so blocked peers unwind) and
	// re-panics with the first failure.
	Run(p int, worker func(rank int, ep Endpoint)) *Report
}

// Report aggregates the outcome of a cluster run.
type Report struct {
	// Time is the completion time in the backend's clock: the maximum
	// final Clock across workers, i.e. when the slowest worker finished.
	Time float64
	// PerWorker holds each worker's final statistics, indexed by rank.
	PerWorker []Stats
	// Clocks holds each worker's final clock, indexed by rank.
	Clocks []float64
}

// MaxRounds returns the maximum per-worker round count — the "x" a worst-
// case worker pays in the xα + yβ cost model.
func (r *Report) MaxRounds() int {
	m := 0
	for _, s := range r.PerWorker {
		if s.Rounds > m {
			m = s.Rounds
		}
	}
	return m
}

// MaxBytesRecv returns the maximum per-worker received volume — the "y" a
// worst-case worker pays in the xα + yβ cost model.
func (r *Report) MaxBytesRecv() int64 {
	var m int64
	for _, s := range r.PerWorker {
		if s.BytesRecv > m {
			m = s.BytesRecv
		}
	}
	return m
}

// TotalBytesRecv returns the received volume summed over all workers — the
// cluster-wide wire traffic of the run. Wire-mode experiments compare this
// figure across transports, since per-worker maxima can hide savings on
// asymmetric schedules (trees, direct-send reduce-scatter).
func (r *Report) TotalBytesRecv() int64 {
	var t int64
	for _, s := range r.PerWorker {
		t += s.BytesRecv
	}
	return t
}
