package simnet

import "spardl/internal/comm"

// Report aggregates the outcome of a cluster run; Time and Clocks are
// virtual α-β seconds.
type Report = comm.Report

// Backend adapts the simulator to the backend-neutral comm.Backend
// contract, fixing the network profile at construction.
func Backend(profile comm.Profile) comm.Backend { return backend{profile} }

type backend struct{ profile comm.Profile }

// Name implements comm.Backend.
func (b backend) Name() string { return "simnet/" + b.profile.Name }

// Run implements comm.Backend.
func (b backend) Run(p int, worker func(rank int, ep comm.Endpoint)) *Report {
	return Run(p, b.profile, func(rank int, ep *Endpoint) { worker(rank, ep) })
}

// Run executes worker(rank, endpoint) on p goroutines over a fresh fabric
// and waits for all of them. If any worker panics, the fabric is poisoned
// (so blocked peers unwind too) and Run re-panics with the first failure.
func Run(p int, profile comm.Profile, worker func(rank int, ep *Endpoint)) *Report {
	f := New(p, profile)
	rep, _ := comm.RunWorkers(p, nil, &f.root,
		func(rank int) comm.Node { return f.Endpoint(rank) },
		func(rank int, ep comm.Endpoint) { worker(rank, ep.(*Endpoint)) })
	if cause := f.root.String(); cause != "" {
		panic(cause)
	}
	return rep
}
