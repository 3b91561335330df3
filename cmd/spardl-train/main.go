// Command spardl-train trains one of the paper's seven cases with a chosen
// sparse all-reduce method and prints the convergence trajectory against
// training time — virtual α-β seconds on the simulator, measured wall
// seconds on the live backends.
//
// Usage:
//
//	spardl-train -case 1 -method spardl -p 14 -k 0.01 -iters 200
//	spardl-train -case 2 -method spardl -d 7 -variant bsag
//	spardl-train -case 5 -method oktopk -network rdma
//	spardl-train -case 1 -p 4 -iters 50 -backend tcp   # forks 4 worker processes over loopback TCP
//
// # One tcpnet rank
//
// With -backend tcp and cluster coordinates — -rendezvous, or the
// SPARDL_TCP_RENDEZVOUS / SPARDL_TCP_P / SPARDL_TCP_RANK environment that
// the forking form above hands its children — the process runs ONE rank
// over the tcpnet backend, exchanging every sparse message over real TCP
// sockets. Rank 0 hosts the rendezvous; the other workers check in there,
// receive their rank and the peer address map, and mesh up. Start P
// copies — on one machine or several — pointing at the same address:
//
//	spardl-train -backend tcp -rendezvous 127.0.0.1:7070 -p 4 -rank 0 -case 1 -iters 50 &
//	spardl-train -backend tcp -rendezvous 127.0.0.1:7070 -p 4 -rank 1 -case 1 -iters 50 &
//	spardl-train -backend tcp -rendezvous 127.0.0.1:7070 -p 4 -rank 2 -case 1 -iters 50 &
//	spardl-train -backend tcp -rendezvous 127.0.0.1:7070 -p 4 -rank 3 -case 1 -iters 50
//
// Rank -1 lets the rendezvous assign the next free rank (rank 0 must be
// explicit — it listens). The process holding rank 0 at the end prints the
// trajectory.
//
// With -elastic the rank survives peer loss: a poisoned fabric triggers
// decentralized re-rendezvous (the lowest surviving ID leads), the
// survivors agree on the resume iteration, restore their boundary
// snapshots, and continue with the shrunk membership, bounded by -min-p
// and -max-restarts.
//
// # Exit codes and the final status line
//
// A rank's last stderr line is always machine-readable:
//
//	spardl-train: outcome=<ok|config-error|rendezvous-failed|poisoned|error> cause=<quoted> gen=<n> p=<n>
//
// and its exit code matches the outcome: 0 ok, 2 configuration error
// (before any network activity), 3 the cluster never formed (rendezvous
// failure or timeout), 4 poisoned fabric (a peer died or a fault severed a
// link mid-training and the run could not — or was not asked to — recover),
// 1 anything else. Supervisors restart on 3/4 and stop on 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"strings"

	"spardl"
)

var (
	caseID   = flag.Int("case", 1, "deep learning case 1-7 (Table II)")
	method   = flag.String("method", "spardl", "spardl | topka | topkdsa | gtopk | oktopk | dense")
	p        = flag.Int("p", 14, "number of workers")
	kRatio   = flag.Float64("k", 0.01, "sparsity ratio k/n")
	d        = flag.Int("d", 1, "SparDL team count (must divide p)")
	variant  = flag.String("variant", "auto", "SparDL SAG variant: auto (R-SAG at a power-of-two d, else B-SAG) | bsag")
	residual = flag.String("residual", "gres", "SparDL residuals: gres | pres | lres")
	iters    = flag.Int("iters", 120, "training iterations")
	network  = flag.String("network", "ethernet", "network profile: ethernet | rdma")
	backend  = flag.String("backend", "sim", "communication substrate: sim (deterministic α-β simulator) | live (real concurrent byte-level transport in one process) | tcp (one OS process per worker over TCP: one rank with -rendezvous, else forks -p of them over loopback; time fields become measured wall seconds on both live backends)")
	seed     = flag.Int64("seed", 1, "random seed")

	rendezvous  = flag.String("rendezvous", "", "host:port of rank 0's rendezvous listener: run this process as one tcp rank")
	rank        = flag.Int("rank", -1, "this tcp rank (0 hosts the rendezvous; -1 = assigned)")
	host        = flag.String("host", "", "host/IP to bind and advertise for this rank's data listener (default: rendezvous host)")
	elastic     = flag.Bool("elastic", false, "survive peer loss: re-rendezvous with the survivors and resume (tcp rank)")
	minP        = flag.Int("min-p", 1, "smallest membership worth continuing with (-elastic)")
	maxRestarts = flag.Int("max-restarts", 1, "re-rendezvous attempts before giving up (-elastic)")
	chaosSpec   = flag.String("chaos", "", "deterministic fault schedule for this cluster (testing; tcp rank, needs explicit -rank)")
)

// Exit codes of a tcp rank: supervisors key restart policy off these.
const (
	exitOK         = 0
	exitError      = 1 // unclassified failure
	exitConfig     = 2 // bad flags/options; retrying cannot help
	exitRendezvous = 3 // the cluster never formed
	exitPoisoned   = 4 // a peer died or a fault severed a link mid-training
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spardl-train: ")
	flag.Parse()

	// A tcp rank, started by hand with -rendezvous or forked below with
	// the coordinates in its environment, runs its one rank and exits.
	if env, forked, envErr := spardl.TCPConfigFromEnv(); strings.EqualFold(*backend, "tcp") && (forked || *rendezvous != "") {
		os.Exit(runRank(env, envErr))
	}

	profile := spardl.Ethernet
	if strings.EqualFold(*network, "rdma") {
		profile = spardl.RDMA
	}

	factory, err := spardl.ParseFactory(*method, *p, *d, *variant, *residual)
	if err != nil {
		log.Fatal(err)
	}

	c := spardl.CaseByID(*caseID)
	fmt.Printf("case %d: %s (%s), %d workers, k/n=%g, %s network\n",
		c.ID, c.Name, c.Task, *p, *kRatio, profile.Name)

	cfg := spardl.TrainConfig{
		Case: c, P: *p, KRatio: *kRatio, Network: profile,
		Factory: factory, Iters: *iters, Seed: *seed,
		EvalEvery: max(1, *iters/10),
	}
	switch strings.ToLower(*backend) {
	case "sim":
	case "live":
		cfg.Backend = spardl.LiveBackend()
	case "tcp":
		// One-command distributed demo: fork one worker process per rank
		// over loopback TCP; rank 0's child prints the trajectory.
		if err := forkTCPCluster(); err != nil {
			log.Fatal(err)
		}
		return
	default:
		log.Fatalf("unknown backend %q", *backend)
	}
	res := spardl.Train(cfg)
	printTrajectory(c, res)
	fmt.Printf("per-update breakdown: comm %.4fs + comp %.4fs; worst-worker rounds/iter: %d; bytes/iter: %d\n",
		res.CommTime, res.CompTime, res.MaxRounds, res.BytesPerIter)
}

// forkTCPCluster re-executes this binary once per rank with the cluster
// coordinates in the environment (the flags pass through unchanged), so
// every child takes runRank; only rank 0's trajectory reaches stdout.
func forkTCPCluster() error {
	return spardl.ForkTCPWorkers(*p, func(r int, cmd *exec.Cmd) {
		cmd.Stdout = io.Discard
		if r == 0 {
			cmd.Stdout = os.Stdout
		}
	})
}

// status prints the structured final line every exit path of runRank
// funnels through.
func status(outcome, cause string, gen, pNow int) {
	log.Printf("outcome=%s cause=%q gen=%d p=%d", outcome, cause, gen, pNow)
}

// classify maps a rank's run error to its outcome and exit code.
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

// runRank runs this process's one rank of a tcpnet cluster, by hand or
// forked, and returns its exit code. The flags' coordinates win over the
// environment's (env, envErr from spardl.TCPConfigFromEnv); -host stays
// in effect either way.
func runRank(env spardl.TCPConfig, envErr error) int {
	cfg := spardl.TCPConfig{Rendezvous: *rendezvous, P: *p, Rank: *rank, Host: *host}
	if envErr != nil {
		status("config-error", envErr.Error(), 0, cfg.P)
		return exitConfig
	}
	if cfg.Rendezvous == "" {
		cfg.Rendezvous, cfg.P, cfg.Rank = env.Rendezvous, env.P, env.Rank
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
	// leader, whose trajectory covers its own evaluations. Each process
	// holds only its own rank's statistics, so the breakdown is labeled
	// per rank, not the simulator's cluster-wide worst-worker aggregation.
	if res.TotalTime > 0 {
		fmt.Printf("case %d: %s (%s), %d workers over tcpnet, k/n=%g\n",
			c.ID, c.Name, c.Task, pNow, *kRatio)
		printTrajectory(c, res)
		fmt.Printf("wall-clock breakdown (rank 0): comm %.4fs + comp %.4fs (modeled); rounds/iter: %d; real bytes/iter: %d\n",
			res.CommTime, res.CompTime, res.MaxRounds, res.BytesPerIter)
	}
	status("ok", "", gen, pNow)
	return exitOK
}

// printTrajectory writes the trajectory table — iteration, clock, held-out
// metric — and the one-line summary; callers append their own per-backend
// breakdown line.
func printTrajectory(c *spardl.Case, res *spardl.TrainResult) {
	metric := "loss"
	if c.Accuracy {
		metric = "accuracy"
	}
	fmt.Printf("\n%-8s  %-12s  %-10s\n", "iter", "time(s)", metric)
	for _, pt := range res.Points {
		fmt.Printf("%-8d  %-12.3f  %-10.4f\n", pt.Iter, pt.Time, pt.Metric)
	}
	fmt.Printf("\n%s\n", res)
}
