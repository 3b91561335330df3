package tcpnet

import (
	"fmt"
	"net"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
)

// LocalBackend returns a comm.Backend that runs P tcpnet workers as
// goroutines of this one process, each with its own endpoint over real
// loopback TCP sockets. The transport cannot tell goroutines from
// processes — every byte still crosses the kernel through a genuine
// socket pair — so this is the single-command way to measure the socket
// data path (bench/'s sync-tcp-* workloads) or exercise it under the race
// detector without forking worker processes. timeout bounds rendezvous,
// mesh establishment and graceful close; zero means the package default.
func LocalBackend(timeout time.Duration) comm.Backend { return localBackend{timeout: timeout} }

// LocalChaosBackend is LocalBackend with a deterministic fault schedule:
// every worker goroutine's Deliver consults its injector once per frame,
// and scheduled crashes kill the worker at the named barrier. Replays with
// the same schedule are bit-identical, and the same schedule replays
// identically on livenet — the chaos suite pins it. The returned backend
// also implements comm.ElasticBackend.
func LocalChaosBackend(timeout time.Duration, sched *chaos.Schedule) comm.Backend {
	return localBackend{timeout: timeout, sched: sched}
}

type localBackend struct {
	timeout time.Duration
	sched   *chaos.Schedule
}

var _ comm.ElasticBackend = localBackend{}

// Name implements comm.Backend.
func (localBackend) Name() string { return "tcpnet-local" }

// Run implements comm.Backend. A worker panic aborts its endpoint —
// closing the sockets unblocks remote peers exactly as a process crash
// would — and Run re-panics with the root cause once all have unwound.
func (b localBackend) Run(p int, worker func(rank int, ep comm.Endpoint)) *comm.Report {
	return comm.Run(b.fleet(p), p, worker)
}

// RunElastic implements comm.ElasticBackend over real loopback TCP: each
// generation is a full Start — fresh rendezvous, fresh mesh, fresh sockets
// — for the surviving membership, under the recovery policy livenet runs
// under (comm.RunElastic), so the two substrates walk identical recovery
// trajectories.
func (b localBackend) RunElastic(p int, opts comm.ElasticOptions, worker comm.ElasticWorker) (*comm.Report, []comm.Recovery, error) {
	return comm.RunElastic("tcpnet", b.fleet(p), p, opts, worker)
}

// fleet returns one run's membership source. The chaos injectors, with
// their per-link frame counters, are keyed by stable ID and carried across
// generations, so a one-shot fault that already fired never re-fires. Each
// generation's rendezvous listener is opened here and handed, live, to
// rank 0: binding port 0 and re-binding the number later would let one of
// the fleet's own data listeners or dials be given the port in between.
func (b localBackend) fleet(p int) comm.Fleet {
	injs := b.sched.Workers(p)
	return comm.InProcess(func(gen int, members []int, root *comm.Cause) func(rank int) comm.Node {
		cfg := Config{P: len(members), Timeout: b.timeout, Gen: gen, IDs: members, root: root}
		var ln net.Listener
		if cfg.P > 1 {
			var err error
			if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				panic(fmt.Sprintf("%v: %v", ErrRendezvous, err))
			}
			cfg.Rendezvous = ln.Addr().String()
		}
		return func(rank int) comm.Node {
			cfg := cfg
			cfg.Rank, cfg.Injector = rank, injs[members[rank]]
			if rank == 0 {
				cfg.listener = ln
			}
			ep, err := Start(cfg)
			if err != nil {
				panic(err)
			}
			return ep.Node
		}
	})
}
