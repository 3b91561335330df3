package tcpnet

import (
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"strconv"

	"spardl/internal/chaos"
	"spardl/internal/comm"
)

// Environment variables the process helpers use to hand a child worker its
// cluster coordinates; cmd/spardl-train and the equivalence tests speak
// this convention, and a spardl-train tcp rank accepts it as the flag
// fallback.
const (
	EnvRendezvous = "SPARDL_TCP_RENDEZVOUS"
	EnvP          = "SPARDL_TCP_P"
	EnvRank       = "SPARDL_TCP_RANK"
)

// ReserveLoopbackAddr picks a currently-free loopback host:port for a
// rendezvous listener: it binds a port, reads the address back, and
// releases it for rank 0 to re-bind. It exists for callers that must pass
// an address to forked worker processes. The port is NOT held in between,
// so it is drawn at random from below every common ephemeral range
// (Linux's starts at 32768, the IANA one at 49152) instead of from port 0:
// whatever binds or dials port 0 in the window — the fleet's own data
// listeners and mesh dials, or another process's — is handed ephemeral
// ports and cannot take it, and neither can the derived rejoin ports
// (base+1+ID). Only another explicit bind of the same number can, and then
// rank 0's re-bind fails with "address already in use". In-process fleets
// (LocalBackend) do not use it — they hand rank 0 the live listener.
// Multi-host deployments pass a fixed, routable address instead.
func ReserveLoopbackAddr() (string, error) {
	for try := 0; try < reserveTries; try++ {
		port := reservePortLo + rand.IntN(reservePortHi-reservePortLo)
		ln, err := net.Listen("tcp", net.JoinHostPort("127.0.0.1", strconv.Itoa(port)))
		if err != nil {
			continue // taken: draw again
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// The range ReserveLoopbackAddr draws from, and how many taken ports it
// skips before it falls back to a kernel-chosen one. The top leaves room
// for the rejoin ports of a few hundred workers below 32768.
const (
	reservePortLo = 20000
	reservePortHi = 32000
	reserveTries  = 32
)

// ChildEnv returns the environment entries that hand one spawned worker
// process its cluster coordinates; append them to os.Environ().
func ChildEnv(rendezvous string, p, rank int) []string {
	return []string{
		EnvRendezvous + "=" + rendezvous,
		EnvP + "=" + strconv.Itoa(p),
		EnvRank + "=" + strconv.Itoa(rank),
	}
}

// FromEnv reads the child-worker convention back into a Config. ok is
// false when the process was not spawned as a tcpnet worker.
func FromEnv() (cfg Config, ok bool, err error) {
	rdv := os.Getenv(EnvRendezvous)
	if rdv == "" {
		return Config{}, false, nil
	}
	p, err := strconv.Atoi(os.Getenv(EnvP))
	if err != nil {
		return Config{}, true, fmt.Errorf("tcpnet: bad %s: %w", EnvP, err)
	}
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		return Config{}, true, fmt.Errorf("tcpnet: bad %s: %w", EnvRank, err)
	}
	return Config{Rendezvous: rdv, P: p, Rank: rank}, true, nil
}

// NewProcBackend is the backend of a worker process: it hosts the one
// rank this process runs, and the other P-1 ranks are separate processes
// running their own. Run and RunElastic start with the rendezvous cfg
// describes, so the Report covers this rank alone; cluster-wide
// aggregation is the parent process's job. A worker panic aborts the
// endpoint first (closing the sockets unblocks remote peers, exactly as a
// process crash would) and then resurfaces. After a poisoned fabric,
// RunElastic re-rendezvouses this rank with the other survivors (see
// rejoin.go; spardl-train -backend tcp -elastic). cfg.Injector, when set, is
// carried across generations so one-shot faults never re-fire. A
// scheduled crash of this very process surfaces as an error after its
// streams half-close.
func NewProcBackend(cfg Config) comm.ElasticBackend { return &procBackend{cfg: cfg} }

// procBackend is the one rank this process hosts. It is also that rank's
// comm.Fleet: ep is the endpoint the next generation runs on, formed by
// Start or by the last Regroup's rejoin.
type procBackend struct {
	cfg Config
	ep  *Endpoint
	// rank and id are those of the generation that ran last.
	rank, id int
}

// Name implements comm.Backend.
func (*procBackend) Name() string { return "tcpnet" }

// start joins the generation-0 cluster of p workers.
func (b *procBackend) start(p int) error {
	b.cfg.P = p
	cfg, err := b.cfg.withDefaults()
	if err != nil {
		return err
	}
	b.cfg = cfg
	b.ep, err = Start(cfg)
	return err
}

// Run implements comm.Backend for the single local rank, fail-fast.
func (b *procBackend) Run(p int, worker func(rank int, ep comm.Endpoint)) *comm.Report {
	if err := b.start(p); err != nil {
		panic(err)
	}
	return comm.Run(b, p, worker)
}

// RunElastic implements comm.ElasticBackend for the single local rank.
func (b *procBackend) RunElastic(p int, opts comm.ElasticOptions, worker comm.ElasticWorker) (*comm.Report, []comm.Recovery, error) {
	if err := b.start(p); err != nil {
		return nil, nil, err
	}
	// A fabric the survivors re-formed but the loop declined to run on
	// (below MinP) must not leave its peers waiting.
	defer func() {
		if b.ep != nil {
			b.ep.Abort(fmt.Sprintf("worker %d: giving up", b.id))
			b.ep.Close()
		}
	}()
	return comm.RunElastic(b.Name(), b, p, opts, worker)
}

// Generation implements comm.Fleet: this process's rank of the generation,
// on the endpoint formed for it.
func (b *procBackend) Generation(gen int, members, lost []int, worker comm.ElasticWorker) (*comm.Report, []any, string) {
	ep := b.ep
	b.ep, b.rank, b.id = nil, ep.Rank(), ep.ID()
	root := ep.link.root
	rep, panics := comm.RunWorkers(ep.P(), []int{ep.Rank()}, root,
		func(int) comm.Node { return ep },
		func(rank int, cep comm.Endpoint) {
			worker(comm.Membership{Gen: gen, P: ep.P(), Rank: rank, ID: ep.ID(), Lost: append([]int(nil), lost...)}, cep)
		})
	return rep, panics, root.String()
}

// Regroup implements comm.Fleet: no process sees the whole fleet, so the
// survivors find each other by re-checking-in (rejoin), and whoever made
// it is the next membership.
func (b *procBackend) Regroup(gen int, members []int, panics []any) ([]int, error) {
	if _, crashed := panics[b.rank].(chaos.Crashed); crashed {
		return nil, fmt.Errorf("worker %d was scheduled to die here", b.id)
	}
	ep, err := rejoin(b.cfg, b.id, gen+1, members)
	if err != nil {
		return nil, fmt.Errorf("re-rendezvous at generation %d failed: %w", gen+1, err)
	}
	b.ep = ep
	return ep.link.ids, nil
}
