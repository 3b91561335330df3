package livenet

import (
	"spardl/internal/chaos"
	"spardl/internal/comm"
)

// backend adapts livenet to comm.ElasticBackend. It may carry a chaos
// schedule; every Run and RunElastic replays it from frame zero.
type backend struct {
	sched *chaos.Schedule
}

// NewBackend returns the livenet backend. It is stateless: every run
// builds fresh fabrics.
func NewBackend() comm.Backend { return backend{} }

// NewChaosBackend returns a livenet backend that replays sched on every
// run: link faults fire on the scheduled frame ordinals at the queue
// boundary, crashes at the scheduled SyncClock barriers, and a poisoned
// fabric names the schedule entry as its root cause. A nil schedule is a
// healthy cluster. The returned backend also implements
// comm.ElasticBackend.
func NewChaosBackend(sched *chaos.Schedule) comm.Backend { return backend{sched: sched} }

var _ comm.ElasticBackend = backend{}

// Name implements comm.Backend.
func (backend) Name() string { return "livenet" }

// Run implements comm.Backend. Report.Time and Report.Clocks are
// wall-clock seconds from endpoint creation to each worker's return.
func (b backend) Run(p int, worker func(rank int, ep comm.Endpoint)) *comm.Report {
	return comm.Run(b.fleet(p), p, worker)
}

// RunElastic implements comm.ElasticBackend.
func (b backend) RunElastic(p int, opts comm.ElasticOptions, worker comm.ElasticWorker) (*comm.Report, []comm.Recovery, error) {
	return comm.RunElastic(b.Name(), b.fleet(p), p, opts, worker)
}

// fleet returns one run's membership source: a fresh fabric per
// generation, with the per-worker injectors — and so their per-link frame
// counters — carried across generations, so a one-shot fault never
// re-fires after recovery.
func (b backend) fleet(p int) comm.Fleet {
	injs := b.sched.Workers(p)
	return comm.InProcess(func(gen int, members []int, root *comm.Cause) func(rank int) comm.Node {
		f := newFabric(len(members), root)
		return func(rank int) comm.Node {
			inj := injs[members[rank]]
			return comm.NewLinkEndpoint("livenet", &link{f: f, rank: rank, ids: members, inj: inj},
				comm.Membership{Gen: gen, P: f.p, Rank: rank, ID: members[rank]}, inj, nil)
		}
	})
}
