// Command spardl-bench runs the experiment harness: it regenerates the
// rows and series of every table and figure in the paper's evaluation.
//
// Usage:
//
//	spardl-bench -list
//	spardl-bench -run fig9
//	spardl-bench -run all -full -o results.txt
//	spardl-bench -reduce-baseline BENCH_reduce.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"spardl"
)

// reduceBaseline is the JSON perf record emitted by -reduce-baseline: the
// ns/op and bytes-on-wire baseline of one steady-state SparDL
// synchronization at paper-like sizes (the BenchmarkReduceOnce workload:
// fabric, reducers and buffers persist across iterations, so the record
// tracks the marginal cost of one more Reduce), tracked across PRs.
type reduceBaseline struct {
	Benchmark   string `json:"benchmark"`
	P           int    `json:"p"`
	N           int    `json:"n"`
	K           int    `json:"k"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// Cluster-wide wire volume of one synchronization under each mode.
	WireBytesCOO        int64 `json:"wire_bytes_coo"`
	WireBytesNegotiated int64 `json:"wire_bytes_negotiated"`
}

// runReduceOnce performs one full-cluster SparDL synchronization on the
// given backend and returns the run report (cluster-wide received bytes:
// α-β accounted on the simulator, real serialized bytes on livenet).
func runReduceOnce(b spardl.Backend, p, n, k int, mode spardl.WireMode, grads [][]float32) *spardl.Report {
	return b.Run(p, func(rank int, ep spardl.CommEndpoint) {
		r, err := spardl.New(p, rank, n, k, spardl.Options{Wire: mode})
		if err != nil {
			panic(err)
		}
		g := make([]float32, n)
		copy(g, grads[rank])
		r.Reduce(ep, g)
	})
}

// reduceGrads builds the deterministic per-worker gradients of the
// ReduceOnce workload.
func reduceGrads(p, n int) [][]float32 {
	grads := make([][]float32, p)
	for w := range grads {
		grads[w] = make([]float32, n)
		for i := range grads[w] {
			grads[w][i] = float32((i*7+w)%101) / 100
		}
	}
	return grads
}

// emitReduceBaseline measures the BenchmarkReduceOnce workload with
// testing.Benchmark and writes the JSON record to path. The measured loop
// IS the committed benchmark: both run spardl.ReduceBench, so the
// baseline and the CI gate cannot drift apart.
func emitReduceBaseline(path string) error {
	const p, n, k = 14, 1 << 20, 1 << 20 / 100
	// Pin the iteration count well past the warmup tail: at the default 1s
	// benchtime the benchmark settles on ~5 iterations and the first timed
	// iterations' pool-fill allocations inflate allocs/op by ~10% over the
	// steady state the arena actually delivers (and the CI gate defends).
	// 20 iterations matches `make bench`'s -benchtime.
	testing.Init()
	if err := flag.Set("test.benchtime", "20x"); err != nil {
		return err
	}
	grads := reduceGrads(p, n)
	sim := spardl.SimBackend(spardl.Ethernet)
	var sel spardl.SelectStats
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		rb, err := spardl.NewReduceBench(p, n, k, spardl.WireCOO)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rb.Iterate()
		}
		sel = rb.SelectStats()
	})
	// Not part of the record CI diffs: how the selections behind ns_per_op
	// went — counted at every block length — all workers, warm-up syncs
	// included.
	fmt.Fprintf(os.Stderr, "selections: %d cold, %d warm hits (%d tightened, %d widened), %d fallbacks\n",
		sel.Cold, sel.WarmHit, sel.Tightened, sel.Widened, sel.Fallback)
	rec := reduceBaseline{
		Benchmark:           "ReduceOnce",
		P:                   p,
		N:                   n,
		K:                   k,
		Iterations:          res.N,
		NsPerOp:             res.NsPerOp(),
		AllocsPerOp:         res.AllocsPerOp(),
		BytesPerOp:          res.AllocedBytesPerOp(),
		WireBytesCOO:        runReduceOnce(sim, p, n, k, spardl.WireCOO, grads).TotalBytesRecv(),
		WireBytesNegotiated: runReduceOnce(sim, p, n, k, spardl.WireNegotiated, grads).TotalBytesRecv(),
	}
	return writeJSON(path, rec)
}

// writeJSON writes rec to path as indented JSON and echoes it.
func writeJSON(path string, rec any) error {
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s:\n%s", path, out)
	return nil
}

// steadyBaseline is the JSON record -live-baseline and -tcp-baseline emit:
// real wall-clock ns/op, real serialized wire bytes and whole-process
// allocations for one steady-state SparDL synchronization on a byte-level
// backend. There is one record, not one per Options.Wire value: that option
// is the simulator's accounting rule and changes nothing a byte backend
// does. The allocation figure covers every goroutine the transport runs
// (workers, per-peer readers and writers), which is exactly the data path
// the tcp baseline defends: a per-frame copy or per-receive buffer shows up
// here no matter which goroutine pays for it.
type steadyBaseline struct {
	Benchmark    string `json:"benchmark"`
	P            int    `json:"p"`
	N            int    `json:"n"`
	K            int    `json:"k"`
	Warmup       int    `json:"warmup"`
	Iterations   int    `json:"iterations"`
	Reps         int    `json:"reps"`
	NsPerOp      int64  `json:"ns_per_op"`
	BytesPerIter int64  `json:"bytes_per_iter"` // real serialized bytes, cluster-wide
	AllocsPerOp  int64  `json:"allocs_per_op"`  // whole-process heap allocations per iteration
}

// steadyRun runs warmup+iters steady-state synchronizations of f's
// reducers on b — reducers and fabric persistent, a SyncClock barrier per
// iteration like a training loop — and returns rank 0's wall-clock ns and
// the whole-process Mallocs per timed iteration, plus the run report, whose
// statistics cover the timed iterations only. Extra barriers bracket the
// timed loop so rank 0's MemStats snapshots happen while every other rank
// is blocked (allocating nothing): the Mallocs delta covers the timed
// iterations and only them.
func steadyRun(b spardl.Backend, f spardl.Factory, grads [][]float32, k, warmup, iters int) (nsPerOp, allocsPerOp int64, report *spardl.Report) {
	p, n := len(grads), len(grads[0])
	var elapsed time.Duration
	var allocs uint64
	report = b.Run(p, func(rank int, ep spardl.CommEndpoint) {
		r := f(p, rank, n, k)
		g := make([]float32, n)
		out := make([]float32, n)
		run := func() {
			copy(g, grads[rank])
			spardl.ReduceInto(r, ep, g, out)
			ep.SyncClock()
		}
		for it := 0; it < warmup; it++ {
			run()
		}
		ep.ResetStats()
		var t0 time.Time
		if rank == 0 {
			var m0 runtime.MemStats
			runtime.ReadMemStats(&m0)
			allocs = m0.Mallocs
			t0 = time.Now()
		}
		// No rank passes this barrier before rank 0 has snapshotted:
		// everyone else needs rank 0's token to proceed.
		ep.SyncClock()
		for it := 0; it < iters; it++ {
			run()
		}
		if rank == 0 {
			elapsed = time.Since(t0)
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			allocs = m1.Mallocs - allocs
		}
		// Hold the fleet until rank 0 has snapshotted again, so endpoint
		// teardown allocations stay outside the measured window.
		ep.SyncClock()
	})
	return elapsed.Nanoseconds() / int64(iters), int64(allocs) / int64(iters), report
}

// emitSteadyBaseline measures SparDL's steady state on a byte-level backend
// — every message truly serialized, and on tcpnet crossing the kernel
// through real loopback sockets — and writes the JSON record to path.
//
// The workload runs as reps independent fleets and the record keeps the
// minimum ns/op and allocs/op: a lock-stepped fleet's wall clock is at the
// scheduler's mercy on a loaded host, and the minimum is the run
// interference touched least — the standard robust estimator for a
// wall-clock gate. Serialized bytes are deterministic and identical across
// reps.
func emitSteadyBaseline(path, name string, b spardl.Backend, p, n, k int) error {
	const warmup, iters, reps = 3, 10, 3
	grads := reduceGrads(p, n)
	rec := steadyBaseline{Benchmark: name, P: p, N: n, K: k,
		Warmup: warmup, Iterations: iters, Reps: reps}
	for rep := 0; rep < reps; rep++ {
		ns, allocs, report := steadyRun(b, spardl.NewFactory(spardl.Options{}), grads, k, warmup, iters)
		if rep == 0 || ns < rec.NsPerOp {
			rec.NsPerOp = ns
		}
		if rep == 0 || allocs < rec.AllocsPerOp {
			rec.AllocsPerOp = allocs
		}
		rec.BytesPerIter = report.TotalBytesRecv() / iters
	}
	return writeJSON(path, rec)
}

// runChaosBench measures elastic recovery under a deterministic fault
// schedule: the same elastic training session runs on livenet (goroutines,
// in-memory channels) and on loopback tcpnet (goroutines, real sockets)
// under the identical schedule, and the report breaks each survived
// recovery into its two halves — re-rendezvous latency (fault observed →
// new fabric established) and first-round latency (worker bodies re-enter
// → first post-recovery iteration completes). The final check pins the
// tentpole property: both substrates finish with bit-identical metrics.
func runChaosBench(w io.Writer, spec string, p, iters int) error {
	sched, err := spardl.ParseChaos(spec)
	if err != nil {
		return err
	}
	c := spardl.CaseByID(1)
	fmt.Fprintf(w, "## chaos recovery: elastic training under %q (P=%d, case %d, %d iters)\n\n", spec, p, c.ID, iters)
	backends := []struct {
		name string
		b    spardl.Backend
	}{
		{"livenet", spardl.LiveChaosBackend(sched)},
		{"tcpnet", spardl.TCPLocalChaosBackend(sched)},
	}
	var finals []*spardl.TrainResult
	for _, bk := range backends {
		cfg := spardl.TrainConfig{
			Case: c, KRatio: 0.01, Factory: spardl.NewFactory(spardl.Options{}),
			Iters: iters, Seed: 1, EvalEvery: max(1, iters/4),
			P: p, Backend: bk.b,
			Elastic: &spardl.ElasticTrainConfig{MinP: 1, MaxRestarts: 3},
		}
		t0 := time.Now()
		res, recs, err := spardl.TrainElastic(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", bk.name, err)
		}
		fmt.Fprintf(w, "%s: %d recoveries, wall %.2fs, final=%.4f\n",
			bk.name, len(recs), time.Since(t0).Seconds(), res.FinalMetric)
		for _, r := range recs {
			fmt.Fprintf(w, "  gen %d: p=%d lost=%v resume-iter=%d  rejoin %.1fms + first-round %.1fms = recovery %.1fms\n",
				r.Gen, r.P, r.Lost, r.ResumeIter,
				r.RejoinSeconds*1e3, r.FirstRoundSeconds*1e3,
				(r.RejoinSeconds+r.FirstRoundSeconds)*1e3)
			fmt.Fprintf(w, "         cause: %s\n", r.Cause)
		}
		finals = append(finals, res)
	}
	lv, tcp := finals[0], finals[1]
	if lv.FinalMetric == tcp.FinalMetric && lv.FinalLoss == tcp.FinalLoss {
		fmt.Fprintln(w, "\npost-recovery trajectories agree bit-exactly across substrates.")
	} else {
		fmt.Fprintf(w, "\nWARNING: substrates disagree: livenet final=%v loss=%v, tcpnet final=%v loss=%v\n",
			lv.FinalMetric, lv.FinalLoss, tcp.FinalMetric, tcp.FinalLoss)
	}
	return nil
}

// envBenchOut hands a forked tcp-demo worker its per-rank result path.
const envBenchOut = "SPARDL_BENCH_OUT"

// tcpWorkerRecord is what one forked worker process reports.
type tcpWorkerRecord struct {
	WallNs    int64 `json:"wall_ns"`
	BytesRecv int64 `json:"bytes_recv"` // real serialized bytes received by this rank
}

// runTCPWorkerBench is the forked child body of -backend tcp: one SparDL
// synchronization over the process mesh, reporting measured wall time and
// real received bytes for this rank.
func runTCPWorkerBench(cfg spardl.TCPConfig, n, k int) {
	ep, err := spardl.TCPStart(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "spardl-bench: rank %d failed: %v\n", ep.Rank(), r)
			os.Exit(1)
		}
	}()
	r, err := spardl.New(ep.P(), ep.Rank(), n, k, spardl.Options{})
	if err != nil {
		panic(err)
	}
	g := reduceGrads(ep.P(), n)[ep.Rank()]
	out := make([]float32, n)
	ep.SyncClock()
	ep.ResetStats()
	t0 := time.Now()
	r.ReduceInto(ep, g, out)
	rec := tcpWorkerRecord{WallNs: time.Since(t0).Nanoseconds(), BytesRecv: ep.Stats().BytesRecv}
	ep.SyncClock()
	data, err := json.Marshal(rec)
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(os.Getenv(envBenchOut), data, 0o644); err != nil {
		panic(err)
	}
}

// runTCPComparison is the parent side of -backend tcp: fork one worker
// process per rank over loopback, aggregate their reports, and print the
// measured cross-process numbers next to the α-β simulator's for the
// identical workload — the project's distributed-honesty demo. The
// simulator's bytes are shown under both accounting rules; the negotiated
// one is the size of what the sockets carry.
func runTCPComparison(w io.Writer, p, n, k int) error {
	dir, err := os.MkdirTemp("", "spardl-tcp")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(w, "## tcp vs simulated: one SparDL synchronization (P=%d processes, n=%d, k=%d)\n\n", p, n, k)
	outs := make([]string, p)
	for rank := range outs {
		outs[rank] = filepath.Join(dir, fmt.Sprintf("rank%d.json", rank))
	}
	err = spardl.ForkTCPWorkers(p, func(rank int, cmd *exec.Cmd) {
		cmd.Env = append(cmd.Env, envBenchOut+"="+outs[rank])
	})
	if err != nil {
		return err
	}

	var wall, bytes int64
	for _, path := range outs {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec tcpWorkerRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		wall = max(wall, rec.WallNs)
		bytes += rec.BytesRecv
	}

	grads := reduceGrads(p, n)
	sim := spardl.SimBackend(spardl.Ethernet)
	coo := runReduceOnce(sim, p, n, k, spardl.WireCOO, grads)
	neg := runReduceOnce(sim, p, n, k, spardl.WireNegotiated, grads)
	fmt.Fprintf(w, "%14s %16s %16s %22s %14s\n",
		"sim clock", "tcp wall (max)", "sim bytes (coo)", "sim bytes (negotiated)", "tcp bytes")
	fmt.Fprintf(w, "%12.3fms %14.3fms %16d %22d %14d\n",
		coo.Time*1e3, float64(wall)/1e6, coo.TotalBytesRecv(), neg.TotalBytesRecv(), bytes)
	fmt.Fprintln(w, "\nsim clock is virtual α-β seconds; tcp figures are measured across separate")
	fmt.Fprintln(w, "worker processes exchanging every sparse message over loopback TCP sockets.")
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("spardl-bench: ")
	var (
		list       = flag.Bool("list", false, "list available experiments and exit")
		run        = flag.String("run", "", "experiment id to run, or \"all\"")
		full       = flag.Bool("full", false, "paper-faithful scale (longer runs) instead of quick mode")
		out        = flag.String("o", "", "also write results to this file")
		baseline   = flag.String("reduce-baseline", "", "write the BenchmarkReduceOnce perf baseline (ns/op, bytes-on-wire) to this JSON file and exit")
		liveBase   = flag.String("live-baseline", "", "write the steady-state livenet baseline (real ns/op + serialized bytes + whole-process allocs/op, at the -live-p/n/k sizes) to this JSON file and exit")
		tcpBase    = flag.String("tcp-baseline", "", "write the steady-state loopback-TCP baseline (same record as -live-baseline, over real sockets) to this JSON file and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof reads it)")
		memprofile = flag.String("memprofile", "", "write an allocation profile taken at exit to this file (go tool pprof reads it)")
		backend    = flag.String("backend", "", "\"tcp\" forks one OS process per worker over loopback TCP and prints the measured cross-process synchronization next to the simulated clock (at the -live-p/n/k sizes), then exits")
		chaosSpec  = flag.String("chaos", "", "run an elastic training session under this deterministic fault schedule on livenet AND loopback tcpnet, reporting per-recovery rejoin/first-round latency and cross-substrate agreement, then exit (e.g. \"crash:rank=1,iter=2\")")
		chaosP     = flag.Int("chaos-p", 4, "worker count for -chaos")
		chaosIters = flag.Int("chaos-iters", 8, "training iterations for -chaos")
		liveP      = flag.Int("live-p", 8, "worker count for -live-baseline / -tcp-baseline / -backend tcp")
		liveN      = flag.Int("live-n", 1<<18, "gradient length for the same")
		liveK      = flag.Int("live-k", 1<<18/100, "global sparse budget for the same")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle accumulated garbage so live objects dominate
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	// A process forked by -backend tcp below: run one rank of the demo.
	if tcpCfg, isChild, err := spardl.TCPConfigFromEnv(); isChild {
		if err != nil {
			log.Fatal(err)
		}
		runTCPWorkerBench(tcpCfg, *liveN, *liveK)
		return
	}

	if *backend != "" {
		if *backend != "tcp" {
			log.Fatalf("unknown backend %q (only \"tcp\" forks here; -live-baseline covers the in-process live backend)", *backend)
		}
		if err := runTCPComparison(os.Stdout, *liveP, *liveN, *liveK); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *baseline != "" {
		if err := emitReduceBaseline(*baseline); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *liveBase != "" {
		if err := emitSteadyBaseline(*liveBase, "LiveReduceSteadyState", spardl.LiveBackend(), *liveP, *liveN, *liveK); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *tcpBase != "" {
		if err := emitSteadyBaseline(*tcpBase, "TCPReduceSteadyState", spardl.TCPLocalBackend(), *liveP, *liveN, *liveK); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *chaosSpec != "" {
		if err := runChaosBench(os.Stdout, *chaosSpec, *chaosP, *chaosIters); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range spardl.Experiments() {
			fmt.Printf("  %-20s %s\n", e.ID, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> or -run all")
		}
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	quality := spardl.Quick
	if *full {
		quality = spardl.FullScale
	}

	var exps []*spardl.Experiment
	if *run == "all" {
		exps = spardl.Experiments()
	} else {
		e, err := spardl.ExperimentByID(*run)
		if err != nil {
			log.Fatal(err)
		}
		exps = []*spardl.Experiment{e}
	}

	for _, e := range exps {
		start := time.Now()
		fmt.Fprintf(w, "### %s — %s\n", e.ID, e.Title)
		fmt.Fprintf(w, "paper: %s\n\n", e.Paper)
		for _, tab := range e.Run(quality) {
			fmt.Fprintln(w, tab.Render())
		}
		fmt.Fprintf(w, "(%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
}
