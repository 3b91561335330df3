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
// tracks the marginal cost of one more ReduceInto), tracked across PRs.
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
	build := spardl.Tuned(spardl.NewFactory(spardl.Options{}), mode)
	return b.Run(p, func(rank int, ep spardl.CommEndpoint) {
		r := build(p, rank, n, k)
		g := make([]float32, n)
		copy(g, grads[rank])
		r.ReduceInto(ep, g, make([]float32, n))
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
// backend. There is one record, not one per wire accounting mode: that
// mode (spardl.Tuned) is the simulator's accounting rule and changes
// nothing a byte backend does. The allocation figure covers every
// goroutine the transport runs (workers, per-peer readers and writers),
// which is exactly the data path the tcp baseline defends: a per-frame
// copy or per-receive buffer shows up here no matter which goroutine pays
// for it.
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
			r.ReduceInto(ep, g, out)
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
// through real loopback sockets — and writes the JSON record to path. The
// sizes are those of the committed BENCH_live.json and BENCH_tcp.json.
//
// The workload runs as reps independent fleets and the record keeps the
// minimum ns/op and allocs/op: a lock-stepped fleet's wall clock is at the
// scheduler's mercy on a loaded host, and the minimum is the run
// interference touched least — the standard robust estimator for a
// wall-clock gate. Serialized bytes are deterministic and identical across
// reps.
func emitSteadyBaseline(path, name string, b spardl.Backend) error {
	const p, n, k = 8, 1 << 18, 1 << 18 / 100
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("spardl-bench: ")
	var (
		list       = flag.Bool("list", false, "list available experiments and exit")
		run        = flag.String("run", "", "experiment id to run, or \"all\"")
		full       = flag.Bool("full", false, "paper-faithful scale (longer runs) instead of quick mode")
		out        = flag.String("o", "", "also write results to this file")
		baseline   = flag.String("reduce-baseline", "", "write the BenchmarkReduceOnce perf baseline (ns/op, bytes-on-wire) to this JSON file and exit")
		liveBase   = flag.String("live-baseline", "", "write the steady-state livenet baseline (real ns/op + serialized bytes + whole-process allocs/op, P=8, n=2^18, k=n/100) to this JSON file and exit")
		tcpBase    = flag.String("tcp-baseline", "", "write the steady-state loopback-TCP baseline (same record as -live-baseline, over real sockets) to this JSON file and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof reads it)")
		memprofile = flag.String("memprofile", "", "write an allocation profile taken at exit to this file (go tool pprof reads it)")
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

	if *baseline != "" {
		if err := emitReduceBaseline(*baseline); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *liveBase != "" {
		if err := emitSteadyBaseline(*liveBase, "LiveReduceSteadyState", spardl.LiveBackend()); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *tcpBase != "" {
		if err := emitSteadyBaseline(*tcpBase, "TCPReduceSteadyState", spardl.TCPLocalBackend()); err != nil {
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
