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
//		global := make([]float32, n)
//		r.ReduceInto(ep, grad, global)
//	})
//
// See examples/ for runnable programs and cmd/spardl-bench for the
// experiment harness.
package spardl

import (
	"fmt"
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
	"spardl/internal/sparsecoll"
	"spardl/internal/tcpnet"
	"spardl/internal/train"
)

// Factory builds one reducer per worker: a reducer synchronizes one
// worker's dense gradient with all peers, and its ReduceInto writes the
// global sparse-summed gradient into a caller-owned vector. See
// sparsecoll.Reducer.
type Factory = sparsecoll.Factory

// Options configures SparDL (team count d, SAG variant, residual mode).
type Options = core.Options

// New builds a SparDL reducer for one worker of a P-worker cluster
// synchronizing length-n gradients with global selection size k.
func New(p, rank, n, k int, opts Options) (*core.SparDL, error) {
	return core.New(p, rank, n, k, opts)
}

// NewFactory returns a Factory producing SparDL reducers with the given
// options, the team count re-fitted to each worker count it is called
// with (so it survives an elastic shrink); it panics on invalid options.
func NewFactory(opts Options) Factory { return core.NewFactory(opts) }

// OkTopk is the Ok-Topk baseline's reducer factory.
var OkTopk Factory = sparsecoll.NewOkTopk

// ParseFactory builds a reducer factory from CLI-style settings: method is
// spardl, topka, topkdsa, gtopk, oktopk or dense (the methods of the
// paper's Table I); teams/variant/residual configure SparDL and are
// ignored otherwise. Every configuration error — unknown names, gTopk on
// non-power-of-two P, invalid team counts — comes back as an error here,
// before any worker starts.
func ParseFactory(method string, p, teams int, variant, residual string) (Factory, error) {
	switch strings.ToLower(method) {
	case "spardl":
	case "topka":
		return sparsecoll.NewTopkA, nil
	case "topkdsa":
		return sparsecoll.NewTopkDSA, nil
	case "gtopk":
		if err := sparsecoll.GTopkValid(p); err != nil {
			return nil, err
		}
		return sparsecoll.NewGTopk, nil
	case "oktopk":
		return OkTopk, nil
	case "dense":
		return sparsecoll.NewDense, nil
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
	opts := Options{Teams: teams}
	switch strings.ToLower(variant) {
	case "", "auto":
	case "bsag":
		opts.Variant = core.BSAG
	default:
		return nil, fmt.Errorf("unknown variant %q", variant)
	}
	switch strings.ToLower(residual) {
	case "", "gres":
	case "pres":
		opts.Residual = core.PRES
	case "lres":
		opts.Residual = core.LRES
	default:
		return nil, fmt.Errorf("unknown residual mode %q", residual)
	}
	if err := opts.Validate(p); err != nil {
		return nil, err
	}
	return NewFactory(opts), nil
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
)

// LiveBackend returns the real concurrent byte-level backend: P goroutines
// over in-memory channels, every sparse message actually serialized
// through the wire codecs, wall-clock time and real byte counts.
func LiveBackend() comm.Backend { return livenet.NewBackend() }

// Distributed TCP backend (tcpnet): each worker is a separate OS process;
// rank 0 hosts the rendezvous, workers mesh up over real TCP sockets, and
// every message crosses the kernel network stack through the same wire
// codecs livenet uses.

// TCPConfig describes one worker process's cluster coordinates
// (rendezvous address, P, rank).
type TCPConfig = tcpnet.Config

// TCPConfigFromEnv reads the spawned-worker convention; ok is false when
// this process was not launched as a tcpnet worker.
func TCPConfigFromEnv() (cfg TCPConfig, ok bool, err error) { return tcpnet.FromEnv() }

// ElasticTrainConfig bounds an elastic run (TrainConfig.Elastic), which
// survives a lost peer by re-rendezvousing the survivors.
type ElasticTrainConfig = train.ElasticConfig

// ParseChaos parses a deterministic fault schedule, a seed-reproducible
// fault program ("crash:rank=1,iter=2;drop:rank=0,peer=2,frame=5") that
// replays bit-identically on livenet and tcpnet; see the chaos package
// grammar (kind:key=value,... joined by ';', kinds crash/drop/corrupt/
// partition).
func ParseChaos(s string) (*chaos.Schedule, error) { return chaos.Parse(s) }

// ErrTCPRendezvous classifies TrainTCP failures: errors.Is(err,
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

// TrainTCP runs this process's rank of a distributed training session over
// tcpnet — the rank body of cmd/spardl-train -backend tcp, whether the
// process was started by hand or forked. It joins the mesh tcp describes
// (cfg.P and cfg.Backend are set from tcp), trains, and tears the mesh
// down. With cfg.Elastic set, a poisoned fabric makes the survivors elect
// the lowest surviving ID as the new rendezvous leader, re-mesh and
// resume; the recoveries come back in order. Each process owns its own
// TrainResult: res.TotalTime > 0 marks the process that held rank 0 at the
// end, whose trajectory covers its own evaluations. Every failure is an
// error, never a panic: ErrTCPRendezvous and IsPoisoned classify it.
func TrainTCP(tcp TCPConfig, cfg TrainConfig) (res *TrainResult, recs []train.RecoveryStat, err error) {
	cfg.P = tcp.P
	cfg.Backend = tcpnet.NewProcBackend(tcp)
	defer func() {
		switch r := recover().(type) {
		case nil:
		case error:
			err = r
		default:
			err = fmt.Errorf("rank %d failed: %v", tcp.Rank, r)
		}
	}()
	if cfg.Elastic != nil {
		return train.RunElastic(cfg)
	}
	return train.Run(cfg), nil, nil
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
	addr, err := tcpnet.ReserveLoopbackAddr()
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
		cmd.Env = append(os.Environ(), tcpnet.ChildEnv(addr, p, rank)...)
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
)

// Built-in network profiles (latency α seconds, β seconds/byte).
var (
	Ethernet = comm.Ethernet
	RDMA     = comm.RDMA
)

// RunCluster executes worker(rank, endpoint) on p goroutines over a fresh
// simulated fabric and reports per-worker α-β costs.
func RunCluster(p int, profile comm.Profile, worker func(rank int, ep *Endpoint)) *comm.Report {
	return simnet.Run(p, profile, worker)
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

// CaseByID returns the case with the given Table II number (1-7).
func CaseByID(id int) *Case { return train.CaseByID(id) }

// Experiment reproduces one table or figure of the paper.
type Experiment = expt.Experiment

// Experiment scale presets.
const (
	Quick     = expt.Quick
	FullScale = expt.Full
)

// Experiments returns every registered experiment, sorted by id.
func Experiments() []*Experiment { return expt.All() }

// ExperimentByID finds one experiment (e.g. "fig9", "table1").
func ExperimentByID(id string) (*Experiment, error) { return expt.ByID(id) }
