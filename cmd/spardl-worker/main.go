// Command spardl-worker runs ONE rank of a distributed training session
// over the tcpnet backend: a separate OS process per worker, exchanging
// every sparse message over real TCP sockets. Rank 0 hosts the rendezvous;
// the other workers check in there, receive their rank and the peer
// address map, and mesh up.
//
// Start P copies — on one machine or several — pointing at the same
// rendezvous address:
//
//	spardl-worker -rendezvous 127.0.0.1:7070 -p 4 -rank 0 -case 1 -iters 50 &
//	spardl-worker -rendezvous 127.0.0.1:7070 -p 4 -rank 1 -case 1 -iters 50 &
//	spardl-worker -rendezvous 127.0.0.1:7070 -p 4 -rank 2 -case 1 -iters 50 &
//	spardl-worker -rendezvous 127.0.0.1:7070 -p 4 -rank 3 -case 1 -iters 50
//
// Rank -1 lets the rendezvous assign the next free rank (rank 0 must be
// explicit — it listens). The cluster coordinates can also come from the
// SPARDL_TCP_RENDEZVOUS / SPARDL_TCP_P / SPARDL_TCP_RANK environment
// (what `spardl-train -backend tcp` uses when it forks its children).
// The workload flags mirror spardl-train; rank 0 prints the trajectory.
//
// With -elastic the process survives peer loss: a poisoned fabric triggers
// decentralized re-rendezvous (the lowest surviving ID leads), the
// survivors agree on the resume iteration, restore their boundary
// snapshots, and continue with the shrunk membership, bounded by -min-p
// and -max-restarts.
//
// # Exit codes and the final status line
//
// The last stderr line is always machine-readable:
//
//	spardl-worker: outcome=<ok|config-error|rendezvous-failed|poisoned|error> cause=<quoted> gen=<n> p=<n>
//
// and the exit code matches the outcome: 0 ok, 2 configuration error
// (before any network activity), 3 the cluster never formed (rendezvous
// failure or timeout), 4 poisoned fabric (a peer died or a fault severed a
// link mid-training and the run could not — or was not asked to — recover),
// 1 anything else. Supervisors restart on 3/4 and stop on 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"spardl"
)

// Exit codes: supervisors key restart policy off these.
const (
	exitOK         = 0
	exitError      = 1 // unclassified failure
	exitConfig     = 2 // bad flags/options; retrying cannot help
	exitRendezvous = 3 // the cluster never formed
	exitPoisoned   = 4 // a peer died or a fault severed a link mid-training
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spardl-worker: ")
	os.Exit(run())
}

// status prints the structured final line every exit path funnels through.
func status(outcome, cause string, gen, p int) {
	log.Printf("outcome=%s cause=%q gen=%d p=%d", outcome, cause, gen, p)
}

// classify maps a run error to its outcome and exit code.
func classify(err error) (string, int) {
	switch {
	case errors.Is(err, spardl.ErrTCPRendezvous):
		return "rendezvous-failed", exitRendezvous
	case spardl.IsPoisoned(err):
		return "poisoned", exitPoisoned
	default:
		return "error", exitError
	}
}

func run() int {
	var (
		rendezvous  = flag.String("rendezvous", "", "host:port of rank 0's rendezvous listener")
		p           = flag.Int("p", 0, "number of workers in the cluster")
		rank        = flag.Int("rank", -1, "this worker's rank (0 hosts the rendezvous; -1 = assigned)")
		host        = flag.String("host", "", "host/IP to bind and advertise for this worker's data listener (default: rendezvous host)")
		caseID      = flag.Int("case", 1, "deep learning case 1-7 (Table II)")
		method      = flag.String("method", "spardl", "spardl | topka | topkdsa | gtopk | oktopk | dense")
		kRatio      = flag.Float64("k", 0.01, "sparsity ratio k/n")
		d           = flag.Int("d", 1, "SparDL team count (must divide p)")
		variant     = flag.String("variant", "auto", "SparDL SAG variant: auto | rsag | bsag")
		residual    = flag.String("residual", "gres", "SparDL residuals: gres | pres | lres")
		iters       = flag.Int("iters", 120, "training iterations")
		seed        = flag.Int64("seed", 1, "random seed")
		elastic     = flag.Bool("elastic", false, "survive peer loss: re-rendezvous with the survivors and resume")
		minP        = flag.Int("min-p", 1, "smallest membership worth continuing with (-elastic)")
		maxRestarts = flag.Int("max-restarts", 1, "re-rendezvous attempts before giving up (-elastic)")
		chaosSpec   = flag.String("chaos", "", "deterministic fault schedule for this cluster (testing; needs explicit -rank)")
	)
	flag.Parse()

	cfg := spardl.TCPConfig{Rendezvous: *rendezvous, P: *p, Rank: *rank, Host: *host}
	if env, ok, err := spardl.TCPConfigFromEnv(); ok {
		if err != nil {
			status("config-error", err.Error(), 0, cfg.P)
			return exitConfig
		}
		if cfg.Rendezvous == "" {
			// The environment supplies the cluster coordinates only; -host
			// (this worker's advertised data address) stays in effect.
			cfg.Rendezvous, cfg.P, cfg.Rank = env.Rendezvous, env.P, env.Rank
		}
	}
	if cfg.Rendezvous == "" && cfg.P != 1 {
		status("config-error", "need -rendezvous and -p (or the SPARDL_TCP_* environment)", 0, cfg.P)
		return exitConfig
	}
	if *chaosSpec != "" {
		if cfg.Rank < 0 {
			status("config-error", "-chaos needs an explicit -rank (the schedule is keyed by stable worker ID)", 0, cfg.P)
			return exitConfig
		}
		sched, err := spardl.ParseChaos(*chaosSpec)
		if err != nil {
			status("config-error", err.Error(), 0, cfg.P)
			return exitConfig
		}
		cfg.Injector = sched.Worker(cfg.Rank)
	}

	factory, err := spardl.ParseFactory(*method, cfg.P, *d, *variant, *residual)
	if err != nil {
		status("config-error", err.Error(), 0, cfg.P)
		return exitConfig
	}

	c := spardl.CaseByID(*caseID)
	tc := spardl.TrainConfig{
		Case: c, KRatio: *kRatio,
		Factory: factory, Iters: *iters, Seed: *seed,
		EvalEvery: max(1, *iters/10),
	}

	if *elastic {
		tc.Elastic = &spardl.ElasticTrainConfig{MinP: *minP, MaxRestarts: *maxRestarts}
	}
	res, recs, err := spardl.TrainTCP(cfg, tc)
	gen, pNow := 0, cfg.P
	for _, r := range recs {
		gen, pNow = r.Gen, r.P
		log.Printf("recovered gen=%d p=%d lost=%v resume-iter=%d rejoin=%.3fs cause=%q",
			r.Gen, r.P, r.Lost, r.ResumeIter, r.RejoinSeconds, r.Cause)
	}
	if err != nil {
		outcome, code := classify(err)
		status(outcome, err.Error(), gen, pNow)
		return code
	}
	// TotalTime is set only by the process holding rank 0 in the final
	// generation — after a rank-0 failover that is the failed-over
	// leader, whose trajectory covers its own evaluations.
	if res.TotalTime > 0 {
		fmt.Printf("case %d: %s (%s), %d workers over tcpnet, k/n=%g\n",
			c.ID, c.Name, c.Task, pNow, *kRatio)
		spardl.FprintTrajectory(os.Stdout, c, res)
		fmt.Printf("wall-clock breakdown (this rank): comm %.4fs + comp %.4fs (modeled); rounds/iter: %d; real bytes/iter: %d\n",
			res.CommTime, res.CompTime, res.MaxRounds, res.BytesPerIter)
	}
	status("ok", "", gen, pNow)
	return exitOK
}
