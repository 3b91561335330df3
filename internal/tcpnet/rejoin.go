package tcpnet

// Elastic re-rendezvous for forked worker processes: procBackend.Regroup,
// the multi-process membership source of comm.RunElastic. Unlike an
// in-process fleet, no central coordinator observes the workers: each
// surviving process notices its own poison, elects the new rendezvous
// leader, and re-forms the mesh.
//
// Every worker derives a per-identity rejoin address from the base
// rendezvous address: port + 1 + ID. On a poisoned fabric, a survivor walks
// the current membership in ascending ID order: the first candidate below
// its own ID that answers within the probe window is the leader (rank-0
// failover — the lowest surviving ID always wins), and a candidate that
// cannot be reached is presumed dead; connection-refused and not-yet-bound
// are indistinguishable, so each dead candidate burns one probe window. A
// survivor that finds no living candidate below itself IS the leader: it
// binds its own rejoin address, collects check-ins until the membership
// settles (no new check-in for a settle window, or every previous member
// has checked in), assigns ranks by ascending stable ID, and distributes
// the new ID and address maps; mesh establishment then proceeds exactly as
// at generation 0. Generation numbers ride in every hello and handshake, so
// a straggler from a torn generation is struck out instead of corrupting
// the new fabric.
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
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"time"
)

// EnvRejoinProbe and EnvRejoinSettle override the leader-election probe
// window and the membership settle window with time.ParseDuration strings.
const (
	EnvRejoinProbe  = "SPARDL_TCP_REJOIN_PROBE"
	EnvRejoinSettle = "SPARDL_TCP_REJOIN_SETTLE"
)

func rejoinProbe() time.Duration  { return envDuration(EnvRejoinProbe, 2*time.Second) }
func rejoinSettle() time.Duration { return envDuration(EnvRejoinSettle, 750*time.Millisecond) }

func envDuration(name string, def time.Duration) time.Duration {
	if s := os.Getenv(name); s != "" {
		if d, err := time.ParseDuration(s); err == nil && d > 0 {
			return d
		}
	}
	return def
}

// rejoinAddr derives the per-identity rejoin address: base port + 1 + id.
func rejoinAddr(rendezvous string, id int) (string, error) {
	host, portStr, err := net.SplitHostPort(rendezvous)
	if err != nil {
		return "", fmt.Errorf("tcpnet: bad rendezvous address %q: %w", rendezvous, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("tcpnet: bad rendezvous port %q: %w", portStr, err)
	}
	return net.JoinHostPort(host, strconv.Itoa(port+1+id)), nil
}

// rejoin re-forms the mesh after a poisoned generation: leader election,
// settle-window rendezvous, then the standard mesh establishment. members
// is the membership of the torn generation; the returned ids are the new
// one (ascending stable IDs of everyone who made it).
func rejoin(cfg Config, myID, gen int, members []int) (*Endpoint, []int, error) {
	deadline := time.Now().Add(cfg.Timeout)
	dataLn, err := net.Listen("tcp", net.JoinHostPort(cfg.Host, "0"))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: data listener: %v", ErrRendezvous, err)
	}
	defer dataLn.Close()
	dataLn.(*net.TCPListener).SetDeadline(deadline)
	myAddr := dataLn.Addr().String()

	var rank int
	var ids []int
	var addrs []string
	joined := false
	probe := rejoinProbe()
	for _, cand := range members {
		if cand >= myID {
			break
		}
		addr, err := rejoinAddr(cfg.Rendezvous, cand)
		if err != nil {
			return nil, nil, err
		}
		r, i, a, ferr := followRejoin(addr, myID, gen, myAddr, probe, deadline)
		if ferr == nil {
			rank, ids, addrs, joined = r, i, a, true
			break
		}
	}
	if !joined {
		addr, err := rejoinAddr(cfg.Rendezvous, myID)
		if err != nil {
			return nil, nil, err
		}
		rank, ids, addrs, err = leadRejoin(addr, myID, gen, myAddr, members, deadline)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrRendezvous, err)
		}
	}

	cfg.P, cfg.Gen, cfg.IDs = len(ids), gen, ids
	e, err := meshUp(cfg, rank, dataLn, addrs, deadline)
	return e, ids, err
}

// followRejoin checks in with a candidate leader. The hello's want field
// carries this worker's stable ID; the assignment answers with the new
// rank, ID map and address map once the leader's membership settles. A
// candidate unreachable within the probe window is presumed dead.
func followRejoin(addr string, myID, gen int, dataAddr string, probe time.Duration, deadline time.Time) (int, []int, []string, error) {
	probeDeadline := time.Now().Add(probe)
	if probeDeadline.After(deadline) {
		probeDeadline = deadline
	}
	conn, err := dialRetry(addr, myID, probeDeadline)
	if err != nil {
		return 0, nil, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(deadline) // the leader answers after its settle window
	if err := writeHello(conn, myID, gen, dataAddr); err != nil {
		return 0, nil, nil, err
	}
	rank, g, ids, addrs, err := readAssignment(conn)
	if err != nil {
		return 0, nil, nil, err
	}
	if g != gen {
		return 0, nil, nil, fmt.Errorf("leader at %s is at generation %d, want %d", addr, g, gen)
	}
	return rank, ids, addrs, nil
}

// leadRejoin is the elected leader's side: bind the derived rejoin address,
// collect survivor check-ins until the membership settles, assign ranks by
// ascending stable ID, and distribute the maps.
func leadRejoin(addr string, myID, gen int, dataAddr string, members []int, deadline time.Time) (int, []int, []string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("rejoin listener on %s: %v", addr, err)
	}
	defer ln.Close()
	settle := rejoinSettle()

	type checkin struct {
		conn net.Conn
		addr string
	}
	joined := map[int]*checkin{}
	defer func() {
		for _, c := range joined {
			c.conn.Close()
		}
	}()
	strikes := 0
	for len(joined) < len(members)-1 {
		wait := settle
		if d := time.Until(deadline); d < wait {
			wait = d
		}
		if wait <= 0 {
			break
		}
		ln.(*net.TCPListener).SetDeadline(time.Now().Add(wait))
		conn, err := ln.Accept()
		if err != nil {
			// The settle window passed with no new check-in: whoever has
			// not reported by now is presumed dead; the membership is final.
			break
		}
		conn.SetDeadline(deadline)
		id, g, a, err := readHello(conn)
		if err == nil && (g != gen || id == myID || joined[id] != nil) {
			err = fmt.Errorf("bad rejoin hello: id=%d gen=%d", id, g)
		}
		if err != nil {
			conn.Close()
			strikes++
			if strikes > 4*len(members) {
				return 0, nil, nil, fmt.Errorf("rejoin gave up after %d bad check-ins", strikes)
			}
			continue
		}
		joined[id] = &checkin{conn: conn, addr: a}
	}

	ids := make([]int, 0, len(joined)+1)
	ids = append(ids, myID)
	for id := range joined {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	addrs := make([]string, len(ids))
	myRank := 0
	for r, id := range ids {
		if id == myID {
			addrs[r] = dataAddr
			myRank = r
			continue
		}
		addrs[r] = joined[id].addr
	}
	for r, id := range ids {
		if id == myID {
			continue
		}
		c := joined[id]
		if err := writeAssignment(c.conn, r, gen, ids, addrs); err != nil {
			return 0, nil, nil, fmt.Errorf("rejoin assignment to worker %d: %v", id, err)
		}
		c.conn.Close()
		delete(joined, id)
	}
	return myRank, ids, addrs, nil
}
