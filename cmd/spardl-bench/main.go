// Command spardl-bench runs the experiment harness: it regenerates the
// rows and series of every table and figure in the paper's evaluation.
//
// Usage:
//
//	spardl-bench -list
//	spardl-bench -run fig9
//	spardl-bench -run all -full -o results.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"spardl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spardl-bench: ")
	var (
		list       = flag.Bool("list", false, "list available experiments and exit")
		run        = flag.String("run", "", "experiment id to run, or \"all\"")
		full       = flag.Bool("full", false, "paper-faithful scale (longer runs) instead of quick mode")
		out        = flag.String("o", "", "also write results to this file")
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
