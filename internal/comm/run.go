package comm

import (
	"fmt"
	"sync"
)

// Node is what the run loop needs of an endpoint beyond the collective
// contract: a stable identity to name in failure causes, a way to poison
// the fabric when its worker dies, and a release. NewLinkEndpoint's and
// simnet's endpoints implement it.
type Node interface {
	Endpoint
	// ID returns the worker's stable generation-0 identity.
	ID() int
	// Abort poisons the fabric with cause so blocked peers unwind.
	Abort(cause string)
	// Close releases the endpoint after its worker returned or aborted.
	Close()
}

// RunWorkers is the one worker run loop. It runs worker on its own
// goroutine for each of the local ranks of a p-worker fabric (nil means
// all p; a process hosting a single rank of a multi-process fabric passes
// just that one), opening each rank's endpoint on that goroutine — opening
// may block in a rendezvous that needs every rank — and waits for all of
// them. A panicking worker first notes "worker <id>: <panic>" in root, the
// generation's root-cause record, and only then aborts its endpoint, so
// the poisoned-fabric panics the abort provokes in blocked peers can never
// mask the failure that started the cascade. Every endpoint is closed on
// its worker's goroutine (a graceful close may wait for peers closing
// concurrently).
//
// It returns the report — ranks that never opened or are not local stay
// zero — and each rank's recovered panic value, nil for clean returns. It
// never re-panics: root says whether the generation poisoned, and the
// caller decides whether that is fatal or the start of a recovery.
func RunWorkers(p int, local []int, root *Cause, open func(rank int) Node, worker func(rank int, ep Endpoint)) (*Report, []any) {
	if local == nil {
		local = identity(p)
	}
	nodes := make([]Node, p)
	panics := make([]any, p)
	rep := &Report{PerWorker: make([]Stats, p), Clocks: make([]float64, p)}
	var wg sync.WaitGroup
	for _, rank := range local {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				r := recover()
				ep := nodes[rank]
				if r != nil {
					panics[rank] = r
					id := rank
					if ep != nil {
						id = ep.ID()
					}
					root.note(fmt.Sprintf("worker %d: %v", id, r))
				}
				if ep == nil {
					return
				}
				if r != nil {
					ep.Abort(root.String())
				}
				ep.Close()
			}()
			nodes[rank] = open(rank)
			worker(rank, nodes[rank])
			rep.Clocks[rank] = nodes[rank].Clock()
		}(rank)
	}
	wg.Wait()
	for _, rank := range local {
		if nodes[rank] == nil {
			continue
		}
		rep.PerWorker[rank] = nodes[rank].Stats()
		if rep.Clocks[rank] > rep.Time {
			rep.Time = rep.Clocks[rank]
		}
	}
	return rep, panics
}
