// Package spardl is a Go implementation of SparDL — "Distributed Deep
// Learning Training with Efficient Sparse Communication" (Zhao et al.,
// ICDE 2024) — together with the sparse all-reduce baselines it is
// evaluated against (TopkA, TopkDSA, gTopk, Ok-Topk), a backend-neutral
// communication layer with three interchangeable transports — a
// deterministic α-β-model cluster simulator (simnet), a real concurrent
// in-process byte-level transport (livenet), and a multi-process TCP
// backend (tcpnet) where every worker is a separate OS process — a small
// autograd engine, and the full experiment harness that regenerates every
// table and figure of the paper's evaluation.
//
// # Quick start
//
//	spardl.RunCluster(8, spardl.Ethernet, func(rank int, ep *spardl.Endpoint) {
//		// one reducer per worker goroutine:
//		r, _ := spardl.New(8, rank, n, k, spardl.Options{})
//		global := r.Reduce(ep, grad)
//	})
//
// See examples/ for runnable programs and cmd/spardl-bench for the
// experiment harness.
package spardl

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"spardl/internal/chaos"
	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/expt"
	"spardl/internal/livenet"
	"spardl/internal/pipeline"
	"spardl/internal/simnet"
	"spardl/internal/sparse"
	"spardl/internal/sparsecoll"
	"spardl/internal/tcpnet"
	"spardl/internal/train"
)

// Reducer synchronizes one worker's dense gradient with all peers and
// returns the global sparse-summed gradient; see sparsecoll.Reducer.
type Reducer = sparsecoll.Reducer

// InPlaceReducer is the steady-state variant of Reducer: ReduceInto writes
// the synchronized gradient into a caller-owned vector instead of
// allocating one per call. Every built-in reducer implements it; together
// with the per-reducer chunk arenas the reduce pipeline allocates nothing
// once warm.
type InPlaceReducer = sparsecoll.InPlaceReducer

// ReduceInto synchronizes grad into out via r's in-place path when it has
// one, copying from Reduce otherwise. Steady-state loops should prefer it
// over Reduce.
func ReduceInto(r Reducer, ep CommEndpoint, grad, out []float32) {
	sparsecoll.ReduceInto(r, ep, grad, out)
}

// Factory builds one Reducer per worker.
type Factory = sparsecoll.Factory

// SparDL is the paper's framework: Spar-Reduce-Scatter, global residual
// collection, and the R-SAG / B-SAG team synchronization algorithms.
type SparDL = core.SparDL

// Options configures SparDL (team count d, SAG variant, residual mode).
type Options = core.Options

// ResidualMode selects the residual collection algorithm.
type ResidualMode = core.ResidualMode

// Residual collection algorithms (Section III-C of the paper).
const (
	GRES = core.GRES // global residual collection (the paper's algorithm)
	PRES = core.PRES // partial (local + end-procedure), as gTopk/Ok-Topk
	LRES = core.LRES // local only, as DGC
)

// Variant selects the Spar-All-Gather algorithm.
type Variant = core.Variant

// Spar-All-Gather variants (Section III-D of the paper).
const (
	Auto = core.Auto // R-SAG when d is a power of two, else B-SAG
	RSAG = core.RSAG
	BSAG = core.BSAG
)

// WireMode selects what the simulator charges for every sparse message
// (Options.Wire). The byte-level backends have one real wire format — the
// negotiated codec — and ignore it.
type WireMode = core.WireMode

// Simulator accounting modes.
const (
	// WireCOO is the paper's accounting baseline: 8 bytes per entry.
	WireCOO = core.WireCOO
	// WireNegotiated charges the smallest self-describing encoding
	// (COO / delta-varint / bitmap / dense) per message — what the real
	// backends move.
	WireNegotiated = core.WireNegotiated
)

// SelectStats counts how a reducer's top-k selections — at every block
// length — found their thresholds: cold, warm hit (of which tightened,
// widened), fallback. Observability only — the selections are exact and
// identical whichever way they went.
type SelectStats = sparse.SelectStats

// Tuned wraps a baseline factory with a simulator accounting mode (the
// zero value is the default). SparDL itself is configured via
// Options.Wire instead.
func Tuned(f Factory, mode WireMode) Factory {
	return sparsecoll.Tuned(f, mode)
}

// New builds a SparDL reducer for one worker of a P-worker cluster
// synchronizing length-n gradients with global selection size k.
func New(p, rank, n, k int, opts Options) (*SparDL, error) {
	return core.New(p, rank, n, k, opts)
}

// NewFactory returns a Factory producing SparDL reducers with the given
// options; it panics on invalid options.
func NewFactory(opts Options) Factory { return core.NewFactory(opts) }

// Baseline reducer factories (the methods of the paper's Table I).
var (
	TopkA   Factory = sparsecoll.NewTopkA
	TopkDSA Factory = sparsecoll.NewTopkDSA
	GTopk   Factory = sparsecoll.NewGTopk
	OkTopk  Factory = sparsecoll.NewOkTopk
	Dense   Factory = sparsecoll.NewDense
)

// Methods maps method names to factories for CLI-style selection. SparDL
// variants are constructed via NewFactory instead.
var Methods = map[string]Factory{
	"topka":   TopkA,
	"topkdsa": TopkDSA,
	"gtopk":   GTopk,
	"oktopk":  OkTopk,
	"dense":   Dense,
}

// GTopkValid reports whether gTopk is constructible for P workers (the
// algorithm is defined only for power-of-two P). CLI harnesses check it up
// front so an unsupported configuration fails fast or is skipped instead
// of panicking mid-run.
func GTopkValid(p int) error { return sparsecoll.GTopkValid(p) }

// ParseFactory builds a reducer factory from CLI-style settings: method is
// "spardl" or a Methods key; teams/variant/residual configure SparDL and
// are ignored otherwise. Every configuration error — unknown names, gTopk
// on non-power-of-two P, invalid team counts — comes back as an error
// here, before any worker starts.
func ParseFactory(method string, p, teams int, variant, residual string) (Factory, error) {
	if strings.EqualFold(method, "spardl") {
		opts := Options{Teams: teams}
		switch strings.ToLower(variant) {
		case "", "auto":
		case "rsag":
			opts.Variant = RSAG
		case "bsag":
			opts.Variant = BSAG
		default:
			return nil, fmt.Errorf("unknown variant %q", variant)
		}
		switch strings.ToLower(residual) {
		case "", "gres":
		case "pres":
			opts.Residual = PRES
		case "lres":
			opts.Residual = LRES
		default:
			return nil, fmt.Errorf("unknown residual mode %q", residual)
		}
		if err := opts.Validate(p); err != nil {
			return nil, err
		}
		return NewFactory(opts), nil
	}
	f, ok := Methods[strings.ToLower(method)]
	if !ok {
		return nil, fmt.Errorf("unknown method %q", method)
	}
	if strings.EqualFold(method, "gtopk") {
		if err := GTopkValid(p); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Communication layer. Every collective is written against the backend-
// neutral comm.Endpoint contract; the simulator implements it with virtual
// clocks, and one wall-clock runtime implements it for both real
// transports (livenet, tcpnet).
type (
	// CommEndpoint is the backend-neutral worker handle every reducer
	// accepts: *Endpoint (the simulator's) and the live backends' endpoints
	// all satisfy it.
	CommEndpoint = comm.Endpoint
	// Backend runs P workers over one communication substrate
	// (SimBackend or LiveBackend); TrainConfig.Backend selects it.
	Backend = comm.Backend
	// Stats is one worker's traffic/time accounting.
	Stats = comm.Stats
)

// SimBackend returns the deterministic α-β simulator backend for the
// given network profile: virtual time, payloads by reference.
func SimBackend(profile Profile) Backend { return simnet.Backend(profile) }

// LiveBackend returns the real concurrent byte-level backend: P goroutines
// over in-memory channels, every sparse message actually serialized
// through the wire codecs, wall-clock time and real byte counts.
func LiveBackend() Backend { return livenet.NewBackend() }

// Distributed TCP backend (tcpnet): each worker is a separate OS process;
// rank 0 hosts the rendezvous, workers mesh up over real TCP sockets, and
// every message crosses the kernel network stack through the same wire
// codecs livenet uses.
type (
	// TCPConfig describes one worker process's cluster coordinates
	// (rendezvous address, P, rank).
	TCPConfig = tcpnet.Config
	// TCPEndpoint is one worker process's comm.Endpoint over the mesh.
	TCPEndpoint = tcpnet.Endpoint
)

// TCPStart performs rendezvous and full-mesh establishment for this
// process's rank and returns its endpoint.
func TCPStart(cfg TCPConfig) (*TCPEndpoint, error) { return tcpnet.Start(cfg) }

// TCPSelfBackend adapts an established TCP endpoint to the Backend
// contract for the one rank this process runs; the other ranks are
// separate processes. Use it as TrainConfig.Backend inside a worker
// process (cmd/spardl-worker does exactly this). Run closes the endpoint.
func TCPSelfBackend(ep *TCPEndpoint) Backend { return tcpnet.SelfBackend(ep) }

// TCPLocalBackend runs P tcpnet workers as goroutines of this one process,
// each with its own endpoint over real loopback TCP sockets — every byte
// still crosses the kernel — so the socket data path is measurable with a
// single command (spardl-bench -tcp-baseline) without forking processes.
func TCPLocalBackend() Backend { return tcpnet.LocalBackend(0) }

// ReserveTCPAddr picks a free loopback host:port for a rendezvous
// listener — the parent-process half of the one-command local demo. The
// port is released before it returns, so rank 0's bind can lose a race for
// it (see tcpnet.ReserveLoopbackAddr).
func ReserveTCPAddr() (string, error) { return tcpnet.ReserveLoopbackAddr() }

// TCPChildEnv returns the environment entries that hand a spawned worker
// process its cluster coordinates; TCPConfigFromEnv reads them back.
func TCPChildEnv(rendezvous string, p, rank int) []string {
	return tcpnet.ChildEnv(rendezvous, p, rank)
}

// TCPConfigFromEnv reads the spawned-worker convention; ok is false when
// this process was not launched as a tcpnet worker.
func TCPConfigFromEnv() (cfg TCPConfig, ok bool, err error) { return tcpnet.FromEnv() }

// Deterministic fault injection and elastic membership. A ChaosSchedule is
// a seed-reproducible fault program ("crash:rank=1,iter=2;drop:rank=0,
// peer=2,frame=5"); the same schedule replays bit-identically on livenet
// and tcpnet, which is what the chaos suite pins. Elastic backends survive
// scheduled crashes by re-rendezvousing the survivors — see TrainElastic.
type (
	// ChaosSchedule is a parsed deterministic fault schedule.
	ChaosSchedule = chaos.Schedule
	// ElasticBackend is a Backend that survives worker loss by re-forming
	// the fabric with the survivors (livenet and tcpnet implement it).
	ElasticBackend = comm.ElasticBackend
	// ElasticTrainConfig bounds an elastic run (TrainConfig.Elastic).
	ElasticTrainConfig = train.ElasticConfig
	// RecoveryStat is one survived membership change: the backend's
	// re-rendezvous record plus the trainer's resume point and first-round
	// latency.
	RecoveryStat = train.RecoveryStat
)

// ParseChaos parses a fault-schedule string; see the chaos package grammar
// (kind:key=value,... joined by ';', kinds crash/drop/delay/corrupt/
// partition).
func ParseChaos(s string) (*ChaosSchedule, error) { return chaos.Parse(s) }

// LiveChaosBackend is LiveBackend under a deterministic fault schedule.
func LiveChaosBackend(sched *ChaosSchedule) Backend { return livenet.NewChaosBackend(sched) }

// TCPLocalChaosBackend is TCPLocalBackend under a deterministic fault
// schedule: the same schedule as LiveChaosBackend, replayed over real
// loopback sockets.
func TCPLocalChaosBackend(sched *ChaosSchedule) Backend { return tcpnet.LocalChaosBackend(0, sched) }

// ErrTCPRendezvous classifies TCPStart failures: errors.Is(err,
// ErrTCPRendezvous) means the cluster never formed (nothing listening,
// timeout, torn check-ins past budget) as opposed to a mid-training fault.
var ErrTCPRendezvous = tcpnet.ErrRendezvous

// IsPoisoned reports whether err records a poisoned communication fabric —
// a peer died or a scheduled fault severed a link mid-collective — as
// opposed to a rendezvous failure or a configuration error.
func IsPoisoned(err error) bool {
	if err == nil {
		return false
	}
	s := err.Error()
	return strings.Contains(s, "poisoned fabric") ||
		strings.Contains(s, "severed by schedule") ||
		chaos.IsCrashed(s)
}

// TrainElastic runs one distributed S-SGD session with elastic membership:
// cfg.Backend must be an ElasticBackend; on a scheduled crash the
// survivors re-rendezvous, agree on the resume iteration, restore their
// boundary snapshots and continue with the shrunk membership. The
// trajectory is deterministic for a given seed, schedule and substrate.
func TrainElastic(cfg TrainConfig) (*TrainResult, []RecoveryStat, error) {
	return train.RunElastic(cfg)
}

// TrainTCPElastic is TrainTCPRank's elastic sibling for one worker
// process: generation 0 is a normal rendezvous at tcp, and after a
// poisoned fabric the survivors elect the lowest surviving ID as the new
// rendezvous leader, re-mesh and resume (cmd/spardl-worker -elastic). In
// multi-process mode each process owns its own TrainResult: after a rank-0
// failover the new rank 0's trajectory covers its own post-recovery
// evaluations (res.TotalTime > 0 marks the process that held rank 0 at the
// end).
func TrainTCPElastic(tcp TCPConfig, cfg TrainConfig) (*TrainResult, []RecoveryStat, error) {
	cfg.P = tcp.P
	cfg.Backend = tcpnet.NewProcBackend(tcp)
	return train.RunElastic(cfg)
}

// TrainTCPRank is the worker-process body shared by cmd/spardl-worker and
// the children cmd/spardl-train forks: join the mesh described by tcp, run
// one rank of the training session over it (cfg.P and cfg.Backend are set
// from the established endpoint), and tear the endpoint down. onStart, if
// non-nil, runs once the mesh is up (banner printing). The returned rank
// tells the caller whether it owns the cluster's stdout (rank 0 carries
// the trajectory); a poisoned fabric or worker panic comes back as an
// error so CLI workers can exit cleanly instead of dumping a stack.
func TrainTCPRank(tcp TCPConfig, cfg TrainConfig, onStart func(rank, p int)) (res *TrainResult, rank int, err error) {
	ep, err := TCPStart(tcp)
	if err != nil {
		return nil, 0, err
	}
	defer ep.Close()
	rank = ep.Rank()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rank %d failed: %v", rank, r)
		}
	}()
	if onStart != nil {
		onStart(ep.Rank(), ep.P())
	}
	cfg.P = ep.P()
	cfg.Backend = TCPSelfBackend(ep)
	return Train(cfg), rank, nil
}

// ForkTCPWorkers is the one-command local demo helper: it reserves a
// loopback rendezvous address and re-executes the current binary once per
// rank with the original arguments plus the cluster coordinates in the
// environment (TCPConfigFromEnv reads them back in the children).
// configure, if non-nil, adjusts each command (stdio, extra env) before it
// starts. If any rank fails to spawn, the already-started workers are
// killed rather than left to time out against a rendezvous that will
// never complete; otherwise ForkTCPWorkers waits for every worker and
// returns the first failure.
func ForkTCPWorkers(p int, configure func(rank int, cmd *exec.Cmd)) error {
	addr, err := ReserveTCPAddr()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmds := make([]*exec.Cmd, p)
	for rank := 0; rank < p; rank++ {
		cmd := exec.Command(self, os.Args[1:]...)
		cmd.Env = append(os.Environ(), TCPChildEnv(addr, p, rank)...)
		cmd.Stderr = os.Stderr
		if configure != nil {
			configure(rank, cmd)
		}
		if err := cmd.Start(); err != nil {
			for _, started := range cmds[:rank] {
				started.Process.Kill()
				started.Wait()
			}
			return fmt.Errorf("spawning worker %d: %w", rank, err)
		}
		cmds[rank] = cmd
	}
	var firstErr error
	for rank, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("worker process %d: %w", rank, err)
		}
	}
	return firstErr
}

// Network / cluster simulation.
type (
	// Endpoint is one worker's handle on the simulated fabric (virtual
	// clock, traffic statistics).
	Endpoint = simnet.Endpoint
	// Profile is a network profile (latency α seconds, β seconds/byte).
	Profile = simnet.Profile
	// Report aggregates per-worker statistics of a cluster run.
	Report = comm.Report
)

// Built-in network profiles.
var (
	Ethernet = simnet.Ethernet
	RDMA     = simnet.RDMA
)

// RunCluster executes worker(rank, endpoint) on p goroutines over a fresh
// simulated fabric and reports per-worker α-β costs.
func RunCluster(p int, profile Profile, worker func(rank int, ep *Endpoint)) *Report {
	return simnet.Run(p, profile, worker)
}

// ReduceBench is the canonical steady-state hot-path workload: one SparDL
// synchronization per Iterate over a persistent fabric with persistent
// reducers and gradient/result buffers, exactly as a training loop holds
// them. BenchmarkReduceOnce and spardl-bench's -reduce-baseline both run
// THIS harness, so the committed BENCH_reduce.json, CI's perf-baseline
// gate and `make bench` measure the identical workload by construction.
type ReduceBench struct {
	grads, bufs, outs [][]float32
	eps               []*Endpoint
	reducers          []*SparDL
}

// NewReduceBench builds the workload: deterministic per-worker gradients,
// one reducer per worker, everything preallocated. It runs two warm-up
// synchronizations so the arenas and pools are filled through a full
// double-buffer (quarantine) cycle before the first timed Iterate.
func NewReduceBench(p, n, k int, mode WireMode) (*ReduceBench, error) {
	rb := &ReduceBench{
		grads: make([][]float32, p), bufs: make([][]float32, p),
		outs: make([][]float32, p), eps: make([]*Endpoint, p),
		reducers: make([]*SparDL, p),
	}
	fabric := simnet.New(p, Ethernet)
	for w := 0; w < p; w++ {
		rb.grads[w] = make([]float32, n)
		for i := range rb.grads[w] {
			rb.grads[w][i] = float32((i*7+w)%101) / 100
		}
		rb.bufs[w] = make([]float32, n)
		rb.outs[w] = make([]float32, n)
		rb.eps[w] = fabric.Endpoint(w)
		r, err := New(p, w, n, k, Options{Wire: mode})
		if err != nil {
			return nil, err
		}
		rb.reducers[w] = r
	}
	rb.Iterate()
	rb.Iterate()
	return rb, nil
}

// Iterate runs one cluster-wide steady-state synchronization: the shared
// run loop over the persistent endpoints, so the fabric, endpoints and
// reducers stay alive across iterations — the allocation-free hot path the
// benchmarks measure.
func (rb *ReduceBench) Iterate() {
	var root comm.Cause
	comm.RunWorkers(len(rb.eps), nil, &root,
		func(rank int) comm.Node { return rb.eps[rank] },
		func(rank int, ep CommEndpoint) {
			copy(rb.bufs[rank], rb.grads[rank])
			rb.reducers[rank].ReduceInto(ep, rb.bufs[rank], rb.outs[rank])
		})
	if cause := root.String(); cause != "" {
		panic(cause)
	}
}

// SelectStats sums the workers' selection counts (see SparDL.SelectStats)
// over every synchronization so far, warm-up included.
func (rb *ReduceBench) SelectStats() SelectStats {
	var sum SelectStats
	for _, r := range rb.reducers {
		sum.Add(r.SelectStats())
	}
	return sum
}

// Distributed training.
type (
	// TrainConfig configures a distributed S-SGD session.
	TrainConfig = train.Config
	// TrainResult is the trajectory and cost summary of a session.
	TrainResult = train.Result
	// Case is one of the paper's seven deep-learning cases.
	Case = train.Case
	// PipelineConfig enables layer-wise bucketed synchronization
	// (TrainConfig.Pipeline): gradients fuse back-to-front into
	// ~BucketBytes buckets whose sparse all-reduces overlap the remaining
	// backward pass; TrainResult reports ExposedComm and OverlapSaved.
	PipelineConfig = pipeline.Config
)

// Train runs one distributed S-SGD session on the simulated cluster.
func Train(cfg TrainConfig) *TrainResult { return train.Run(cfg) }

// FprintTrajectory writes the standard CLI trajectory table — iteration,
// clock, held-out metric, and the one-line summary — shared by
// spardl-train and spardl-worker so the two binaries' rank-0 output cannot
// drift apart. Callers append their own per-backend breakdown line.
func FprintTrajectory(w io.Writer, c *Case, res *TrainResult) {
	metric := "loss"
	if c.Accuracy {
		metric = "accuracy"
	}
	fmt.Fprintf(w, "\n%-8s  %-12s  %-10s\n", "iter", "time(s)", metric)
	for _, pt := range res.Points {
		fmt.Fprintf(w, "%-8d  %-12.3f  %-10.4f\n", pt.Iter, pt.Time, pt.Metric)
	}
	fmt.Fprintf(w, "\n%s\n", res)
}

// Cases lists the paper's seven cases (Table II) as scaled stand-ins.
func Cases() []*Case { return train.Cases }

// CaseByID returns the case with the given Table II number (1-7).
func CaseByID(id int) *Case { return train.CaseByID(id) }

// Experiments.
type (
	// Experiment reproduces one table or figure of the paper.
	Experiment = expt.Experiment
	// ResultTable is a rendered experiment artifact.
	ResultTable = expt.Table
)

// Experiment scale presets.
const (
	Quick     = expt.Quick
	FullScale = expt.Full
)

// Experiments returns every registered experiment, sorted by id.
func Experiments() []*Experiment { return expt.All() }

// ExperimentByID finds one experiment (e.g. "fig9", "table1").
func ExperimentByID(id string) (*Experiment, error) { return expt.ByID(id) }
