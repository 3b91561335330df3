package expt

import (
	"fmt"
	"math"
	"sync"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/sparsecoll"
	"spardl/internal/train"
)

// runConvergence trains one case with one method and returns the result.
// Communication β is scaled to paper-size gradients (PaperScaleComm), so
// the time axis of convergence curves matches the timing experiments.
func runConvergence(caseID, p int, kRatio float64, network comm.Profile, nf NamedFactory, iters, evalEvery int, seed int64) *train.Result {
	return train.Run(train.Config{
		Case: train.CaseByID(caseID), P: p, KRatio: kRatio,
		Network: network, Factory: nf.Factory,
		Iters: iters, Seed: seed, EvalEvery: evalEvery,
		PaperScaleComm: true,
	})
}

// timeToTarget finds the earliest virtual time at which a trajectory
// reaches the target metric (≥ for accuracy, ≤ for loss). It returns the
// total time when the target is never reached.
func timeToTarget(r *train.Result, target float64, accuracy bool) float64 {
	for _, pt := range r.Points {
		if (accuracy && pt.Metric >= target) || (!accuracy && pt.Metric <= target) {
			return pt.Time
		}
	}
	return r.TotalTime
}

// convergenceTable runs all methods on one case and reports final quality,
// per-update time, and time to the common quality target (the weakest
// method's final metric) — the quantity behind the paper's "X× faster"
// convergence claims.
func convergenceTable(title string, caseID, p int, kRatio float64, methods []NamedFactory, iters, evalEvery int, seed int64) *Table {
	c := train.CaseByID(caseID)
	results := make([]*train.Result, len(methods))
	for i, nf := range methods {
		results[i] = runConvergence(caseID, p, kRatio, comm.Ethernet, nf, iters, evalEvery, seed)
	}
	// Common target: the worst final metric across methods.
	target := results[0].FinalMetric
	for _, r := range results[1:] {
		if (c.Accuracy && r.FinalMetric < target) || (!c.Accuracy && r.FinalMetric > target) {
			target = r.FinalMetric
		}
	}
	metricName := "final-loss"
	if c.Accuracy {
		metricName = "final-acc"
	}
	tab := &Table{
		Title:   title,
		Columns: []string{"method", metricName, "per-update(s)", "time-to-target(s)", "SparDL speedup"},
		Notes:   []string{fmt.Sprintf("common target metric: %s", formatFloat(target))},
	}
	spardlIdx := len(results) - 1
	for i, nf := range methods {
		if nf.Name == "SparDL" {
			spardlIdx = i
		}
	}
	spardlTTT := timeToTarget(results[spardlIdx], target, c.Accuracy)
	for _, r := range results {
		ttt := timeToTarget(r, target, c.Accuracy)
		tab.AddRow(r.Method, r.FinalMetric, r.PerUpdateTime, ttt, fmt.Sprintf("%.1fx", ttt/spardlTTT))
	}
	return tab
}

func init() {
	register(&Experiment{
		ID:    "fig7",
		Title: "Fig. 7: gradient count after inter-team Bruck all-gather (B-SAG)",
		Paper: "N_t changes slowly across batches (≈1.5–2.5e5 for VGG-16 at paper scale), justifying the slowly-adapted top-h selection.",
		Run: func(q Quality) []*Table {
			const p, d = 14, 7
			var mu sync.Mutex
			reds := make([]*core.SparDL, p)
			factory := func(pp, rank, n, k int) sparsecoll.Reducer {
				r, err := core.New(pp, rank, n, k, core.Options{Teams: d, Variant: core.BSAG})
				if err != nil {
					panic(err)
				}
				mu.Lock()
				reds[rank] = r
				mu.Unlock()
				return r
			}
			iters := pick(q, 100, 1200)
			train.Run(train.Config{
				Case: train.CaseByID(1), P: p, KRatio: 1e-2,
				Network: comm.Ethernet, Factory: factory, Iters: iters, Seed: 7,
				PaperScaleComm: true,
			})
			nts := reds[0].BsagCounts()
			tab := &Table{
				Title:   fmt.Sprintf("Fig. 7 — N_t after inter-team Bruck all-gather (VGG-16-like, P=%d, d=%d)", p, d),
				Columns: []string{"batch", "N_t"},
			}
			stride := len(nts) / 25
			if stride < 1 {
				stride = 1
			}
			for i := 0; i < len(nts); i += stride {
				tab.AddRow(i+1, nts[i])
			}
			mean, sd := meanStd(nts)
			half := nts[len(nts)/2:]
			m2, sd2 := meanStd(half)
			tab.Notes = append(tab.Notes,
				fmt.Sprintf("overall mean N_t = %.0f (σ=%.0f); second-half mean = %.0f (σ=%.0f) — stable within successive iterations", mean, sd, m2, sd2),
				fmt.Sprintf("target L(k,d,P) = dk/P = %d", reds[0].BlockK()),
			)
			return []*Table{tab}
		},
	})

	register(&Experiment{
		ID:    "fig9",
		Title: "Fig. 9: convergence vs training time in four cases, 14 workers",
		Paper: "SparDL converges 4.9/4.0/1.4× faster than TopkA/TopkDSA/Ok-Topk on VGG-19; 3.9/3.3/1.7× on VGG-11; 2.6/3.6/1.7× on LSTM-IMDB; 4.6/4.3/2.2× on LSTM-PTB, at comparable final quality.",
		Run: func(q Quality) []*Table {
			var tables []*Table
			for _, caseID := range []int{2, 4, 5, 6} {
				c := train.CaseByID(caseID)
				iters := c.ItersPerEpoch * pick(q, 2, 12)
				tables = append(tables, convergenceTable(
					fmt.Sprintf("Fig. 9 — %s (P=14, k/n=1e-2)", c.Name),
					caseID, 14, 1e-2, paperBaselines(), iters, c.ItersPerEpoch/2, 9))
			}
			return tables
		},
	})

	register(&Experiment{
		ID:    "fig11",
		Title: "Fig. 11: convergence on ResNet-50 and BERT, 14 workers",
		Paper: "SparDL reaches the same quality 1.7× faster than Ok-Topk on both ResNet-50 and BERT.",
		Run: func(q Quality) []*Table {
			var tables []*Table
			methods := []NamedFactory{
				{"OkTopk", sparsecoll.NewOkTopk},
				{"SparDL", sparDL(core.Options{})},
			}
			for _, caseID := range []int{3, 7} {
				c := train.CaseByID(caseID)
				iters := c.ItersPerEpoch * pick(q, 2, 10)
				tables = append(tables, convergenceTable(
					fmt.Sprintf("Fig. 11 — %s (P=14, k/n=1e-2)", c.Name),
					caseID, 14, 1e-2, methods, iters, c.ItersPerEpoch/2, 11))
			}
			return tables
		},
	})

	register(&Experiment{
		ID:    "fig12b",
		Title: "Fig. 12(b): convergence with 8 workers (incl. gTopk)",
		Paper: "SparDL is fastest at P=8 too, though its margin is smaller than at P=14; gTopk trails due to tree bandwidth.",
		Run: func(q Quality) []*Table {
			c := train.CaseByID(2)
			iters := c.ItersPerEpoch * pick(q, 2, 12)
			methods := append([]NamedFactory{{"gTopk", sparsecoll.NewGTopk}}, paperBaselines()...)
			return []*Table{convergenceTable(
				"Fig. 12(b) — VGG-19/CIFAR-100 (P=8, k/n=1e-2)",
				2, 8, 1e-2, methods, iters, c.ItersPerEpoch/2, 12)}
		},
	})

	register(&Experiment{
		ID:    "fig13",
		Title: "Fig. 13: SparDL with R-SAG / B-SAG convergence, 14 workers",
		Paper: "R-SAG d=2 slightly faster than d=1 at equal accuracy; B-SAG d=7 and d=14 are 1.25×/1.2× faster, but d=14 (=P) loses accuracy because synchronization degenerates to one local top-h.",
		Run: func(q Quality) []*Table {
			c := train.CaseByID(1)
			iters := c.ItersPerEpoch * pick(q, 2, 12)
			a := convergenceTable(
				"Fig. 13(a) — SparDL with R-SAG (P=14, VGG-16/CIFAR-10, k/n=1e-3)",
				1, 14, 1e-3, []NamedFactory{
					{"d=1", sparDL(core.Options{})},
					{"R-SAG d=2", sparDL(core.Options{Teams: 2})},
				}, iters, c.ItersPerEpoch/2, 13)
			b := convergenceTable(
				"Fig. 13(b) — SparDL with B-SAG (P=14, VGG-16/CIFAR-10, k/n=1e-3)",
				1, 14, 1e-3, []NamedFactory{
					{"d=1", sparDL(core.Options{})},
					{"B-SAG d=2", sparDL(core.Options{Teams: 2, Variant: core.BSAG})},
					{"B-SAG d=7", sparDL(core.Options{Teams: 7, Variant: core.BSAG})},
					{"B-SAG d=14", sparDL(core.Options{Teams: 14, Variant: core.BSAG})},
				}, iters, c.ItersPerEpoch/2, 13)
			return []*Table{a, b}
		},
	})

	register(&Experiment{
		ID:    "fig16",
		Title: "Fig. 16: impact of the sparsification ratio k/n",
		Paper: "Reducing k/n from 1e-1 to 1e-2 cuts training time ~5× with no accuracy change; 1e-3 trims a little more with slight accuracy loss; below 1e-3 time stops improving (latency floor) while accuracy degrades sharply (worst at 1e-5).",
		Run: func(q Quality) []*Table {
			var tables []*Table
			for _, caseID := range []int{1, 2} {
				c := train.CaseByID(caseID)
				iters := c.ItersPerEpoch * pick(q, 2, 12)
				tab := &Table{
					Title:   fmt.Sprintf("Fig. 16 — %s, SparDL with varying k/n (P=14)", c.Name),
					Columns: []string{"k/n", "k", "final-acc", "total-time(s)", "time vs k/n=1e-1"},
				}
				var baseTime float64
				for _, ratio := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5} {
					r := runConvergence(caseID, 14, ratio, comm.Ethernet, NamedFactory{"SparDL", sparDL(core.Options{})}, iters, 0, 16)
					if ratio == 1e-1 {
						baseTime = r.TotalTime
					}
					tab.AddRow(fmt.Sprintf("%.0e", ratio), r.K, r.FinalMetric, r.TotalTime,
						fmt.Sprintf("%.2fx", r.TotalTime/baseTime))
				}
				tables = append(tables, tab)
			}
			return tables
		},
	})

	register(&Experiment{
		ID:    "fig17",
		Title: "Fig. 17: residual collection algorithms (GRES vs PRES vs LRES)",
		Paper: "SparDL-GRES consistently converges to the best accuracy per epoch across SparDL, R-SAG and B-SAG configurations; PRES and LRES lag because in-procedure residuals are lost.",
		Run: func(q Quality) []*Table {
			type sub struct {
				label  string
				caseID int
				opts   core.Options
			}
			subs := []sub{
				{"Fig. 17(a) — VGG-19, SparDL", 2, core.Options{}},
				{"Fig. 17(b) — VGG-16, SparDL", 1, core.Options{}},
				{"Fig. 17(c) — VGG-16, SparDL(R-SAG d=2)", 1, core.Options{Teams: 2}},
				{"Fig. 17(d) — VGG-16, SparDL(B-SAG d=7)", 1, core.Options{Teams: 7, Variant: core.BSAG}},
			}
			var tables []*Table
			for _, s := range subs {
				c := train.CaseByID(s.caseID)
				epochs := pick(q, 2, 12)
				iters := c.ItersPerEpoch * epochs
				tab := &Table{
					Title:   s.label + " (P=14, k/n=1e-3, accuracy per epoch)",
					Columns: []string{"residuals"},
				}
				for e := 1; e <= epochs; e++ {
					tab.Columns = append(tab.Columns, fmt.Sprintf("epoch %d", e))
				}
				for _, mode := range []core.ResidualMode{core.GRES, core.PRES, core.LRES} {
					opts := s.opts
					opts.Residual = mode
					r := runConvergence(s.caseID, 14, 1e-3, comm.Ethernet,
						NamedFactory{mode.String(), sparDL(opts)}, iters, c.ItersPerEpoch, 17)
					row := []any{mode.String()}
					for _, pt := range r.Points {
						row = append(row, pt.Metric)
					}
					tab.AddRow(row...)
				}
				tables = append(tables, tab)
			}
			return tables
		},
	})
}

func meanStd(xs []int) (mean, sd float64) {
	for _, x := range xs {
		mean += float64(x)
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := float64(x) - mean
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(len(xs)))
	return mean, sd
}
