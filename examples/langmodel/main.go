// Langmodel trains the paper's Case 6 (an LSTM language model on a
// PTB-like Markov corpus) and shows the effect of Spar-All-Gather team
// synchronization: d=1 (plain SparDL) versus B-SAG with d teams, the
// latency/bandwidth trade-off of Section III-D.
package main

import (
	"fmt"

	"spardl"
)

func main() {
	c := spardl.CaseByID(6)
	const p = 14
	fmt.Printf("training %s (%s) on %d workers, k/n = 1%%\n\n", c.Name, c.Task, p)

	// d = 7 is not a power of two, so the default Variant runs B-SAG.
	var runs []*spardl.TrainResult
	for _, opts := range []spardl.Options{{}, {Teams: 7}} {
		res := spardl.Train(spardl.TrainConfig{
			Case: c, P: p, KRatio: 0.01,
			Network: spardl.Ethernet, Factory: spardl.NewFactory(opts),
			Iters: 90, Seed: 6, EvalEvery: 30,
			// Scale β to the paper-size model so the communication share of
			// each update is realistic for a 66M-parameter LSTM.
			PaperScaleComm: true,
		})
		fmt.Printf("%s:\n", res.Method)
		for _, pt := range res.Points {
			fmt.Printf("  t=%7.2fs  loss=%.4f\n", pt.Time, pt.Metric)
		}
		fmt.Printf("  per-update: %.4fs (comm %.4fs, comp %.4fs)\n\n",
			res.PerUpdateTime, res.CommTime, res.CompTime)
		runs = append(runs, res)
	}

	one, seven := runs[0], runs[1]
	pace := "slower"
	if seven.PerUpdateTime < one.PerUpdateTime {
		pace = "faster"
	}
	fmt.Printf("d=7 ran each update %s than d=1 (%.4fs vs %.4fs) and ended at loss %.4f vs %.4f.\n",
		pace, seven.PerUpdateTime, one.PerUpdateTime, seven.FinalMetric, one.FinalMetric)
}
