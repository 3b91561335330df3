package tcpnet

// Elastic re-rendezvous for forked worker processes: procBackend.Regroup,
// the multi-process membership source of comm.RunElastic. Unlike an
// in-process fleet, no central coordinator observes the workers: each
// surviving process notices its own poison, elects the new leader, and runs
// the membership dialog (lead / checkIn, tcpnet.go) under the Rejoin policy.
//
// Every worker derives a per-identity rejoin address from the base
// rendezvous address: port + 1 + ID. On a poisoned fabric, a survivor walks
// the current membership in ascending ID order: the first candidate below
// its own ID that answers within the probe window is the leader (rank-0
// failover — the lowest surviving ID always wins), and a candidate that
// cannot be reached is presumed dead; connection-refused and not-yet-bound
// are indistinguishable, so each dead candidate burns one probe window. A
// survivor that finds no living candidate below itself IS the leader: it
// leads on its own rejoin address, admits only members of the torn
// generation, and closes the membership when every one of them has checked
// in or no check-in has arrived for a settle window. Ranks are assigned by
// ascending stable ID, as at generation 0, and mesh establishment then
// proceeds exactly as at generation 0. Generation numbers ride in every
// hello and handshake, so a straggler from a torn generation is struck out
// instead of corrupting the new fabric.
//
// Two caveats, accepted for this protocol's scale: the derived rejoin ports
// must be free on the leader's host (a fixed base port makes them
// predictable; ReserveLoopbackAddr's random ports below the ephemeral range
// make collisions unlikely), and the probe window must exceed the worst-case skew between
// survivors noticing the poison — a survivor that probes before the true
// leader binds would elect itself and split the fleet. The defaults (2s
// probe against millisecond poison cascades) leave three orders of
// magnitude of margin.

import (
	"net"
	"slices"
	"strconv"
	"time"
)

// The leader-election probe window and the membership settle window.
// Variables only so that the forked-process tests can shorten them.
var (
	rejoinProbe  = 2 * time.Second
	rejoinSettle = 750 * time.Millisecond
)

// rejoinAddr derives the per-identity rejoin address: base port + 1 + id.
func rejoinAddr(rendezvous string, id int) (string, error) {
	host, portStr, err := net.SplitHostPort(rendezvous)
	if err != nil {
		return "", rendezvousErr("bad rendezvous address %q: %v", rendezvous, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", rendezvousErr("bad rendezvous port %q: %v", portStr, err)
	}
	return net.JoinHostPort(host, strconv.Itoa(port+1+id)), nil
}

// rejoin re-forms the mesh after a poisoned generation: leader election,
// then the membership dialog under the Rejoin policy, then the standard
// mesh establishment. members is the membership of the torn generation, in
// ascending ID order; the new one is the returned endpoint's ID map.
func rejoin(cfg Config, myID, gen int, members []int) (*Endpoint, error) {
	torn := cfg
	torn.Gen, torn.P, torn.IDs, torn.Rank = gen, len(members), members, slices.Index(members, myID)
	if torn.Rank < 0 {
		return nil, rendezvousErr("worker %d is not a member of %v", myID, members)
	}
	return join(cfg, func(dataAddr string, deadline time.Time) (Config, []string, error) {
		for _, cand := range members[:torn.Rank] {
			addr, err := rejoinAddr(cfg.Rendezvous, cand)
			if err != nil {
				return torn, nil, err
			}
			follower := torn
			follower.Rendezvous, follower.Timeout = addr, rejoinProbe
			if formed, addrs, err := checkIn(follower, dataAddr, deadline); err == nil {
				formed.Timeout = cfg.Timeout
				return formed, addrs, nil
			}
		}
		addr, err := rejoinAddr(cfg.Rendezvous, myID)
		if err != nil {
			return torn, nil, err
		}
		torn.Rendezvous = addr
		return lead(torn, rejoinSettle, dataAddr, deadline)
	})
}
