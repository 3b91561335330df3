package comm

import "fmt"

// Profile is a network in the Hockney latency-bandwidth (α-β) model the
// paper states every cost in: a message of b bytes costs Alpha + Beta·b
// seconds at its receiver (Arrive).
type Profile struct {
	Name  string
	Alpha float64 // per-message latency, seconds
	Beta  float64 // per-byte transfer cost, seconds/byte
}

// Ethernet approximates the paper's commodity Ethernet cluster ("connected
// to an Ethernet with default setting"): 300µs effective per-message
// latency (TCP/IP stack included) and ~1 Gb/s effective per-worker
// bandwidth.
var Ethernet = Profile{Name: "ethernet", Alpha: 300e-6, Beta: 8e-9}

// RDMA approximates the paper's InfiniBand/RDMA cluster (Section IV-J):
// 5µs latency, ~20 Gb/s effective bandwidth.
var RDMA = Profile{Name: "rdma", Alpha: 5e-6, Beta: 0.4e-9}

// Arrive is the one receive rule: a message of bytes accounted bytes whose
// receive starts at ready — the later of the receiver calling Recv and the
// message being sent — has arrived at ready + (α + β·bytes).
func (n Profile) Arrive(ready float64, bytes int) float64 {
	return ready + (n.Alpha + n.Beta*float64(bytes))
}

// Shaped returns b with every data frame paying net on the wall clock: the
// link runtime's Recv parks on a timer until net.Arrive(the moment it
// popped the frame, the frame's accounted bytes). The park counts as
// communication time; barrier tokens stay free, as on simnet. b's
// endpoints must be the in-process link runtime (livenet, tcpnet's
// LocalBackend): on simnet or a forked tcpnet rank every worker panics.
func Shaped(b Backend, net Profile) Backend { return shaped{b, net} }

type shaped struct {
	inner Backend
	net   Profile
}

// Name implements Backend.
func (s shaped) Name() string { return s.inner.Name() + "/" + s.net.Name }

// Run implements Backend.
func (s shaped) Run(p int, worker func(rank int, ep Endpoint)) *Report {
	return s.inner.Run(p, func(rank int, ep Endpoint) { worker(rank, s.shape(ep)) })
}

// RunElastic implements ElasticBackend with the inner backend's.
func (s shaped) RunElastic(p int, opts ElasticOptions, worker ElasticWorker) (*Report, []Recovery, error) {
	return s.inner.(ElasticBackend).RunElastic(p, opts, func(m Membership, ep Endpoint) { worker(m, s.shape(ep)) })
}

// shape runs on the worker goroutine before the body: before any Recv.
func (s shaped) shape(ep Endpoint) Endpoint {
	e, ok := ep.(*linkEndpoint)
	if !ok {
		panic(fmt.Sprintf("comm.Shaped: %s endpoint %T is not the link runtime", s.inner.Name(), ep))
	}
	e.net = &s.net
	return e
}
