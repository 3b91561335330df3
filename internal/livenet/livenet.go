// Package livenet is the hardware-honest comm backend: a real concurrent
// in-memory transport. P workers run as goroutines and exchange messages
// over per-pair FIFO queues of *bytes* — every payload is serialized at
// the sender through the comm payload registry (sparse chunks go through
// the wire codecs, so the bytes crossing a queue are exactly the
// Encode/Decode stream) and parsed back at the receiver. Nothing travels
// by reference, which is what makes the backend's numbers real: encoding
// cost, decoding cost, allocation pressure and wall-clock time are all
// actually paid.
//
// # Determinism
//
// Results are bit-identical to simnet's for every algorithm in this
// repository: each Recv names its source rank, per-pair delivery is FIFO,
// and the codec round-trip preserves float32 values exactly. Only the
// *clock* differs — Clock, CommTime, ExposedComm and OverlapSaved are
// measured wall seconds, and BytesSent/BytesRecv count real serialized
// bytes rather than α-β accounted ones. The accounted size still reaches
// the receiver as Recv's second return value, so algorithms that feed it
// back into their schedules (e.g. Ok-Topk's balancing) behave identically.
//
// # What lives here
//
// Only the transport: a comm.Link of P² byte queues, with the chaos fault
// injector at the queue boundary. Statistics, marshalling, the Overlap/
// Join communication stream, the SyncClock barrier, the worker run loop
// and elastic recovery are the shared runtime in package comm
// (comm.NewLinkEndpoint, comm.RunWorkers, comm.RunElastic), which tcpnet
// runs on too.
package livenet

import (
	"errors"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
	"spardl/internal/sparse"
)

// fabric connects the P workers of one generation with per-pair FIFO byte
// queues. It fails as a whole: any link's Sever closes every queue.
type fabric struct {
	p      int
	queues []*comm.Fifo[comm.Frame] // from*p + to
	root   *comm.Cause              // the generation's root-cause record
}

func newFabric(p int, root *comm.Cause) *fabric {
	f := &fabric{p: p, queues: make([]*comm.Fifo[comm.Frame], p*p), root: root}
	for i := range f.queues {
		f.queues[i] = comm.NewFifo[comm.Frame]()
	}
	return f
}

// poisoned is the error every operation on a closed queue reports: the
// fabric's root cause, not the queue that happened to notice.
func (f *fabric) poisoned() error { return errors.New(f.root.String()) }

// link is one rank's comm.Link view of the fabric.
type link struct {
	f    *fabric
	rank int
	// ids maps rank → generation-0 worker ID. Chaos schedules name workers
	// by ID, so replays stay aligned after an elastic shrink.
	ids []int
	inj chaos.Injector // nil = healthy worker
}

// Deliver implements comm.Link: the frame's buffer moves through the queue
// by ownership, and the receiver's runtime re-pools it after decoding.
func (l *link) Deliver(to int, fr comm.Frame) error {
	if l.inj != nil {
		if err := l.inject(to, fr.Buf); err != nil {
			return err
		}
	}
	if !l.f.queues[l.rank*l.f.p+to].Push(fr) {
		return l.f.poisoned()
	}
	return nil
}

// inject consults the fault injector for one outbound frame on the
// rank→to link — livenet's queue boundary, the analogue of tcpnet's conn
// wrapper, consulted for every frame including barrier tokens so the
// per-link ordinals match across backends. Delays sleep in place (benign);
// corruption mutates the serialized bytes so the receiver's decode
// genuinely fails; a drop or partition severs the link by poisoning the
// fabric with the scheduled fault as the named root cause. Corrupting a
// zero-length barrier token is treated as link death too, mirroring what a
// flipped frame header does to a TCP stream.
func (l *link) inject(to int, buf []byte) error {
	act := l.inj.Outbound(l.ids[to])
	if act.Delay > 0 {
		time.Sleep(act.Delay)
	}
	if act.Corrupt && len(buf) > 0 {
		chaos.CorruptBytes(buf)
	}
	if act.Drop || (act.Corrupt && len(buf) == 0) {
		cause := act.Fault.Severed()
		l.Sever(cause)
		return errors.New(cause)
	}
	return nil
}

// Next implements comm.Link. The nil arena says the buffer is pooled:
// nothing decoded from it may alias it.
func (l *link) Next(from int) (comm.Frame, *sparse.Arena, error) {
	fr, ok := l.f.queues[from*l.f.p+l.rank].Pop()
	if !ok {
		return fr, nil, l.f.poisoned()
	}
	return fr, nil, nil
}

// Sever implements comm.Link. One link failing fails the whole fabric: it
// closes every queue, so any worker blocked on one unwinds instead of
// deadlocking. First cause wins, so the panic that started a cascade is
// what the run reports, not the poisoned-queue panics it provokes in
// blocked peers.
func (l *link) Sever(cause string) {
	l.f.root.Fail(cause, func() {
		for _, q := range l.f.queues {
			q.Close()
		}
	})
}

// Rotate implements comm.Link; pooled buffers have no epochs.
func (l *link) Rotate() {}

// Close implements comm.Link; queues hold nothing to drain or release.
func (l *link) Close() {}
