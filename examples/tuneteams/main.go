// Tuneteams implements the paper's recommended procedure for selecting the
// optimal team count d (Section III-D / Fig. 15): run one epoch for every
// divisor of P, pick the d with the least per-epoch time, then train with
// it. Per-epoch times are stable across epochs, so one epoch suffices.
package main

import (
	"fmt"

	"spardl"
)

func main() {
	c := spardl.CaseByID(1)
	const (
		p          = 12
		epochIters = 40
		kRatio     = 0.01
	)
	fmt.Printf("selecting the optimal team count d for %s on %d workers\n\n", c.Name, p)

	// Every divisor d of P is a candidate; the reducer's name says which
	// Spar-All-Gather the default Variant picked for it.
	var best spardl.Options
	bestName, bestTime := "", 0.0
	fmt.Printf("%-20s %s\n", "config", "first-epoch time")
	for d := 1; d <= p; d++ {
		if p%d != 0 {
			continue
		}
		opts := spardl.Options{Teams: d}
		res := spardl.Train(spardl.TrainConfig{
			Case: c, P: p, KRatio: kRatio,
			Network: spardl.Ethernet, Factory: spardl.NewFactory(opts),
			Iters: epochIters, Seed: 3,
		})
		fmt.Printf("%-20s %.3fs\n", res.Method, res.TotalTime)
		if bestTime == 0 || res.TotalTime < bestTime {
			best, bestName, bestTime = opts, res.Method, res.TotalTime
		}
	}

	fmt.Printf("\noptimal configuration: %s — continuing training with it\n\n", bestName)
	res := spardl.Train(spardl.TrainConfig{
		Case: c, P: p, KRatio: kRatio,
		Network: spardl.Ethernet, Factory: spardl.NewFactory(best),
		Iters: 3 * epochIters, Seed: 3, EvalEvery: epochIters,
	})
	for _, pt := range res.Points {
		fmt.Printf("  t=%7.2fs  accuracy=%.3f\n", pt.Time, pt.Metric)
	}
	fmt.Printf("\n%s\n", res)
}
