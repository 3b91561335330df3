// Package simnet simulates a cluster of P workers connected by a network
// that follows the Hockney latency-bandwidth (α-β) cost model — the exact
// model the SparDL paper uses for every complexity claim (Section II).
//
// Workers run as goroutines and exchange messages point-to-point. Payloads
// move by reference (no serialization), but every receive advances the
// receiving worker's *virtual clock* by α + β·bytes, and message causality
// is preserved: a message cannot be received before the sender's clock at
// the moment of sending. The fabric therefore yields, per worker, exactly
// the quantities the paper's cost model tracks:
//
//   - transmission rounds (the "x" in xα + yβ): one per Recv;
//   - received volume (the "y"): total bytes across Recvs.
//
// The simulation is deterministic: algorithm schedules decide the ordering,
// not goroutine scheduling, because each Recv names its source rank.
package simnet

import (
	"fmt"

	"spardl/internal/comm"
)

// Profile describes a network: per-message latency Alpha (seconds) and
// per-byte transfer cost Beta (seconds/byte).
type Profile struct {
	Name  string
	Alpha float64
	Beta  float64
}

// Ethernet approximates the paper's commodity Ethernet cluster ("connected
// to an Ethernet with default setting"): 300µs effective per-message
// latency (TCP/IP stack included) and ~1 Gb/s effective per-worker
// bandwidth.
var Ethernet = Profile{Name: "ethernet", Alpha: 300e-6, Beta: 8e-9}

// RDMA approximates the paper's InfiniBand/RDMA cluster (Section IV-J):
// 5µs latency, ~20 Gb/s effective bandwidth.
var RDMA = Profile{Name: "rdma", Alpha: 5e-6, Beta: 0.4e-9}

// message is a point-to-point datagram with an accounted wire size,
// stamped with the sender's clock at the moment of sending.
type message struct {
	from, to int
	payload  any
	bytes    int
	sentAt   float64
}

// Fabric connects P endpoints with per-pair FIFO queues. The queues are
// unbounded, mirroring eager/nonblocking sends (MPI_Isend): the simulated
// cost of a transfer is charged entirely at the receiver by the α-β model.
type Fabric struct {
	p       int
	profile Profile
	queues  []*comm.Fifo[message] // from*p + to
	root    comm.Cause            // why the fabric was poisoned, if it was
}

// New creates a fabric for p workers. It panics on p <= 0 (a configuration
// bug, not a runtime condition).
func New(p int, profile Profile) *Fabric {
	if p <= 0 {
		panic("simnet: need at least one worker")
	}
	f := &Fabric{p: p, profile: profile, queues: make([]*comm.Fifo[message], p*p)}
	for i := range f.queues {
		f.queues[i] = comm.NewFifo[message]()
	}
	return f
}

// P returns the number of workers on the fabric.
func (f *Fabric) P() int { return f.p }

// Profile returns the network profile in use.
func (f *Fabric) Profile() Profile { return f.profile }

// Endpoint returns worker rank's endpoint. Each rank must be used by a
// single goroutine.
func (f *Fabric) Endpoint(rank int) *Endpoint {
	if rank < 0 || rank >= f.p {
		panic(fmt.Sprintf("simnet: rank %d out of range [0,%d)", rank, f.p))
	}
	return &Endpoint{fabric: f, rank: rank}
}

// Poison records cause as the root cause (first one wins) and closes
// every queue, so that any worker blocked in Recv panics with it instead
// of deadlocking. The run loop uses it to propagate worker panics.
func (f *Fabric) Poison(cause string) {
	f.root.Fail(cause, func() {
		for _, q := range f.queues {
			q.Close()
		}
	})
}

// push enqueues m, panicking on a poisoned fabric.
func (f *Fabric) push(m message) {
	if !f.queues[m.from*f.p+m.to].Push(m) {
		panic("simnet: send on poisoned fabric: " + f.root.String())
	}
}

// pop dequeues the next message of the from→to pair, panicking on a
// poisoned fabric.
func (f *Fabric) pop(from, to int) message {
	m, ok := f.queues[from*f.p+to].Pop()
	if !ok {
		panic("simnet: recv on poisoned fabric: " + f.root.String())
	}
	return m
}
