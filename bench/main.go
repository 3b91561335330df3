// Command bench is the repository's benchmark spine: five named workloads,
// end-to-end metrics measured with tracing off, and per-layer metrics from
// a traced pass whose decorators live only in this directory.
//
//	go run ./bench                                   # all workloads, untraced then traced
//	go run ./bench -repeat 2                         # two sets, compared against BENCHMARK.json bounds
//	go run ./bench -workload sync-sim-1m -seed 7 -seconds 10 -trace 0
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and end with its result line (default: all five, untraced then traced)")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 6, "length of each timed window")
		trace   = flag.Int("trace", 0, "with -workload: 0 measures end-to-end metrics untraced, 1 runs the traced pass for per-layer metrics")
		quick   = flag.Bool("quick", false, "smoke sizes: every workload shrinks to a fraction of a second")
		repeat  = flag.Int("repeat", 1, "without -workload: run this many full sets and compare each end-to-end metric's drift against its bound")
		outDir  = flag.String("out", "bench/out", "directory for trace-<workload>.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "bench: GOMAXPROCS=%d nproc=%d %s %s/%s cal_ref_ms=%g\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, calRefMs)
	cfg := runConfig{seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir}
	cal := newCalKernel(*quick)

	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		cfg.trace = *trace != 0
		res, err := w.run(cfg, cal)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		printResult(os.Stderr, res)
		if err := writeResultLine(os.Stdout, res); err != nil {
			fatal(err)
		}
		return
	}

	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	var sets []map[string]*result // per set: workload → untraced result
	failed := false
	for set := 0; set < *repeat; set++ {
		fmt.Printf("== set %d of %d ==\n", set+1, *repeat)
		byName := map[string]*result{}
		for i := range workloads {
			w := &workloads[i]
			for _, traced := range []bool{false, true} {
				c := cfg
				c.trace = traced
				if traced {
					c.seconds = cfg.seconds / 2 // per-layer metrics carry no bound
				}
				res, err := w.run(c, cal)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.name, err))
				}
				printResult(os.Stdout, res)
				if err := writeResultLine(os.Stdout, res); err != nil {
					fatal(err)
				}
				failed = failed || res.Failed > 0
				if !traced {
					byName[w.name] = res
				}
			}
		}
		sets = append(sets, byName)
	}
	if *repeat > 1 && compareSets(os.Stdout, sets, bounds) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResultLine prints the one-line JSON object the driver reads.
func writeResultLine(w io.Writer, r *result) error {
	metrics := map[string]metricValue{}
	for name, v := range r.Metrics {
		metrics[name] = metricValue{Value: v, Unit: unitOf[name]}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printResult renders a result for people: every metric by name and unit,
// then the ungated diagnostics.
func printResult(w io.Writer, r *result) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "-- %s seed=%d %s: attempted=%d failed=%d %v\n",
		r.Workload, r.Seed, pass, r.Attempted, r.Failed, r.Failures)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "   %-32s %14.6g %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	keys := make([]string, 0, len(r.Diag))
	for k := range r.Diag {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   (diag) %-25s %14.6g\n", k, r.Diag[k])
	}
	for i, b := range r.Blocks {
		fmt.Fprintf(w, "   (block %2d) raw %10.4f ms  kernel %6.2f / %6.2f ms  calibrated %10.4f ms\n",
			i, b.rawMs, b.calBefore, b.calAfter, b.calibratedMs)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "   trace: %s\n", r.TraceFile)
	}
}
