package expt

import (
	"fmt"
	"strings"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/nn"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
	"spardl/internal/train"
)

func ceilLog2(p int) int {
	l := 0
	for 1<<l < p {
		l++
	}
	return l
}

// modelGrad returns rank's gradient of case c's freshly initialized
// stand-in model on its iter-th training batch, at the model's own n: the
// trainer's first step, without the update.
func modelGrad(c *train.Case, seed int64, rank, iter int) []float32 {
	m := c.NewModel(seed)
	_, grad := nn.PackParams(m.Params())
	loss, _ := m.Loss(c.NewData(seed).TrainBatch(rank, iter, c.BatchSize))
	loss.Backward()
	return grad
}

// modelN is the length of case c's gradient.
func modelN(c *train.Case) int { return nn.ParamCount(c.NewModel(0).Params()) }

// costProbe runs one synchronization of case c's model gradients on simnet
// after a warmup one, so adaptive methods are in steady state, and returns
// the report of the second alone: its rounds and bytes received.
func costProbe(c *train.Case, p, k int, seed int64, nf NamedFactory) *comm.Report {
	return simnet.Run(p, comm.Ethernet, func(rank int, ep *simnet.Endpoint) {
		g := modelGrad(c, seed, rank, 0)
		r := nf.Factory(p, rank, len(g), k)
		out := make([]float32, len(g))
		r.ReduceInto(ep, g, out)
		ep.SyncClock()
		ep.ResetStats()
		r.ReduceInto(ep, modelGrad(c, seed, rank, 1), out)
	})
}

// speedupTable trains caseID with each method on simnet under network
// (paper-scale β, k/n = 1e-2) and reports its per-update breakdown and
// SparDL's communication speedup over it; SparDL comes last.
func speedupTable(title string, caseID, p int, network comm.Profile, iters int, seed int64, methods []NamedFactory) *Table {
	tab := &Table{
		Title:   title,
		Columns: []string{"method", "comm(s)", "comp(s)", "per-update(s)", "SparDL comm speedup"},
	}
	results := make([]*train.Result, len(methods))
	for i, nf := range methods {
		results[i] = runConvergence(caseID, p, 1e-2, network, nf, iters, 0, seed)
	}
	spardlComm := results[len(results)-1].CommTime
	for _, r := range results {
		tab.AddRow(r.Method, r.CommTime, r.CompTime, r.PerUpdateTime, fmt.Sprintf("%.1fx", r.CommTime/spardlComm))
	}
	return tab
}

func init() {
	register(&Experiment{
		ID:    "table1",
		Title: "Table I: communication complexity of sparse all-reduce methods",
		Paper: "Latency/bandwidth formulas: TopkA logP·α, 2(P-1)kβ; TopkDSA (P+2logP)α, [4(P-1)k/P, (P-1)(2k+n)/P]β; gTopk 2logP·α, 4logP·kβ; Ok-Topk 2(P+logP)α, [2(P-1)k/P, 6(P-1)k/P]β; SparDL 2logP·α, 4k(P-1)/P·β; R-SAG/B-SAG per Eqs. 7/10.",
		Run: func(q Quality) []*Table {
			c := train.CaseByID(1) // VGG-16, the case of Section IV-F
			n := modelN(c)
			k := n / 100
			tab := &Table{
				Title:   fmt.Sprintf("Table I verification on %s's gradient (n=%d, k=%d; measured worst-worker cost vs formula)", c.Name, n, k),
				Columns: []string{"method", "P", "rounds", "formula-rounds", "elems", "formula-elems", "envelope"},
				Notes: []string{
					"elems = 4-byte wire units, so one COO entry counts 2 (index+value), matching Table I's kβ accounting",
					"measured after one warmup iteration; adaptive methods (Ok-Topk, B-SAG) report data-dependent volumes",
					"Ok-Topk's lands above 6(P-1)k/P here: the overshoot the SparDL paper warns of",
					"TopkDSA/Ok-Topk direct-send rounds are P-1 here; Table I's P counts the local copy too",
				},
			}
			for _, p := range []int{12, 14, 16} {
				lg := ceilLog2(p)
				kf := float64(k)
				pf := float64(p)

				type spec struct {
					nf       NamedFactory
					rounds   string
					roundsLo int
					roundsHi int
					elemsLo  float64
					elemsHi  float64
					elems    string
				}
				specs := []spec{
					{NamedFactory{"TopkA", sparsecoll.NewTopkA}, fmt.Sprintf("%d", lg), lg, lg,
						0, 2 * (pf - 1) * kf, fmt.Sprintf("≤2(P-1)k=%.0f", 2*(pf-1)*kf)},
					{NamedFactory{"TopkDSA", sparsecoll.NewTopkDSA}, fmt.Sprintf("%d", p-1+lg), p - 1 + lg, p - 1 + lg,
						2 * (pf - 1) / pf * kf, (pf - 1) / pf * (2*kf + float64(n)), fmt.Sprintf("[4(P-1)k/P=%.0f, (P-1)(2k+n)/P=%.0f]", 4*(pf-1)/pf*kf, (pf-1)/pf*(2*kf+float64(n)))},
					{NamedFactory{"OkTopk", sparsecoll.NewOkTopk}, fmt.Sprintf("%d±1", p-1+2*lg), p - 1 + 2*lg - 1, p + 2*lg + 1,
						kf * (pf - 1) / pf, 6 * kf * (pf - 1) / pf, fmt.Sprintf("[2(P-1)k/P=%.0f, 6(P-1)k/P=%.0f]", 2*(pf-1)/pf*kf, 6*(pf-1)/pf*kf)},
					{NamedFactory{"SparDL", sparDL(core.Options{})}, fmt.Sprintf("%d", 2*lg), 2 * lg, 2 * lg,
						4*(pf-1)/pf*kf - 4*pf, 4*(pf-1)/pf*kf + 1, fmt.Sprintf("4k(P-1)/P=%.0f", 4*(pf-1)/pf*kf)},
				}
				if sparsecoll.GTopkValid(p) == nil {
					specs = append(specs, spec{NamedFactory{"gTopk", sparsecoll.NewGTopk}, fmt.Sprintf("≤%d (2logP critical path)", 2*lg), 1, 2 * lg,
						0, 4 * float64(lg) * kf, fmt.Sprintf("≤4logP·k=%.0f", 4*float64(lg)*kf)})
				}
				if p%2 == 0 {
					d := 2
					lgm := ceilLog2(p / d)
					want := 2*lgm + ceilLog2(d)
					elems := 4*kf*(pf-float64(d))/pf + 2*kf*float64(d)/pf*float64(ceilLog2(d))
					specs = append(specs, spec{NamedFactory{"SparDL(R-SAG,d=2)", sparDL(core.Options{Teams: 2})},
						fmt.Sprintf("%d", want), want, want, elems - 4*pf, elems + 1,
						fmt.Sprintf("2k((2P-2d)/P+(d/P)logd)=%.0f", elems)})
				}
				if bd := bsagDivisor(p); bd > 1 {
					lgm := ceilLog2(p / bd)
					want := 2*lgm + ceilLog2(bd)
					df := float64(bd)
					lo := 2 * kf * (df*df + pf - 2*df) / (pf * df)
					hi := 2 * kf * (df*df + 2*pf - 3*df) / pf
					specs = append(specs, spec{NamedFactory{fmt.Sprintf("SparDL(B-SAG,d=%d)", bd), sparDL(core.Options{Teams: bd, Variant: core.BSAG})},
						fmt.Sprintf("%d", want), want, want, lo * 0.5, hi,
						fmt.Sprintf("[%.0f, %.0f] (Eq. 10)", lo, hi)})
				}

				for _, s := range specs {
					rep := costProbe(c, p, k, 1, s.nf)
					rounds, elems := rep.MaxRounds(), rep.MaxBytesRecv()/4
					var outside []string
					if rounds < s.roundsLo || rounds > s.roundsHi {
						outside = append(outside, "rounds")
					}
					if float64(elems) < s.elemsLo {
						outside = append(outside, "elems below")
					}
					if float64(elems) > s.elemsHi {
						outside = append(outside, "elems above")
					}
					verdict := "inside"
					if outside != nil {
						verdict = strings.Join(outside, ", ")
					}
					tab.AddRow(s.nf.Name, p, rounds, s.rounds, elems, s.elems, verdict)
				}
			}
			return []*Table{tab}
		},
	})
}

// bsagDivisor picks a non-power-of-two divisor of p for the B-SAG row.
func bsagDivisor(p int) int {
	for _, d := range []int{7, 6, 3, 5} {
		if p%d == 0 {
			return d
		}
	}
	return 1
}

func init() {
	register(&Experiment{
		ID:    "fig8",
		Title: "Fig. 8: per-update time in four cases, 14 workers",
		Paper: "SparDL communication is 6.4/5.1/1.6× faster than TopkDSA/TopkA/Ok-Topk on VGG-19; 5.6/4.7/2.2× on VGG-11; 2.7/3.8/1.8× on LSTM-IMDB; 5.0/4.5/2.3× on LSTM-PTB.",
		Run: func(q Quality) []*Table {
			var tables []*Table
			for _, caseID := range []int{2, 4, 5, 6} {
				tables = append(tables, speedupTable(
					fmt.Sprintf("Fig. 8 — %s (P=14, k/n=1e-2, Ethernet)", train.CaseByID(caseID).Name),
					caseID, 14, comm.Ethernet, pick(q, 8, 30), 8, paperBaselines()))
			}
			return tables
		},
	})

	register(&Experiment{
		ID:    "fig10",
		Title: "Fig. 10: per-update time on ResNet-50 and BERT, 14 workers",
		Paper: "SparDL achieves 2.3× (ResNet-50) and 2.0× (BERT) communication speedup over Ok-Topk.",
		Run: func(q Quality) []*Table {
			var tables []*Table
			for _, caseID := range []int{3, 7} {
				tables = append(tables, speedupTable(
					fmt.Sprintf("Fig. 10 — %s (P=14, k/n=1e-2, Ethernet)", train.CaseByID(caseID).Name),
					caseID, 14, comm.Ethernet, pick(q, 8, 30), 10, []NamedFactory{
						{"OkTopk", sparsecoll.NewOkTopk},
						{"SparDL", sparDL(core.Options{})},
					}))
			}
			return tables
		},
	})

	register(&Experiment{
		ID:    "fig12a",
		Title: "Fig. 12(a): scalability — speedup vs number of workers",
		Paper: "SparDL exhibits the highest speedup at every P∈{5,8,11,14}; the gap to the baselines widens as P grows; gTopk (P=8 only) trails SparDL.",
		Run: func(q Quality) []*Table {
			c := train.CaseByID(2) // VGG-19 on CIFAR-100, as in the paper
			// Reference: one epoch with TopkDSA at P=8. An epoch is a fixed
			// dataset pass: iterations scale inversely with P.
			epochExamples := c.ItersPerEpoch * 8 * c.BatchSize
			epochTime := func(p int, nf NamedFactory) float64 {
				r := runConvergence(c.ID, p, 1e-2, comm.Ethernet, nf, pick(q, 6, 12), 0, 12)
				return r.PerUpdateTime * float64(epochExamples/(p*c.BatchSize))
			}
			ref := epochTime(8, NamedFactory{"TopkDSA", sparsecoll.NewTopkDSA})
			tab := &Table{
				Title:   "Fig. 12(a) — speedup over TopkDSA@8 (VGG-19/CIFAR-100 epoch time)",
				Columns: []string{"P", "TopkDSA", "TopkA", "OkTopk", "gTopk", "SparDL"},
				Notes:   []string{fmt.Sprintf("reference epoch time (TopkDSA, P=8): %.2fs", ref)},
			}
			for _, p := range []int{5, 8, 11, 14} {
				row := []any{p}
				for _, nf := range []NamedFactory{
					{"TopkDSA", sparsecoll.NewTopkDSA},
					{"TopkA", sparsecoll.NewTopkA},
					{"OkTopk", sparsecoll.NewOkTopk},
					{"gTopk", sparsecoll.NewGTopk},
					{"SparDL", sparDL(core.Options{})},
				} {
					if nf.Name == "gTopk" && sparsecoll.GTopkValid(p) != nil {
						row = append(row, "-") // gTopk undefined for non-pow2 P; skip, don't crash the run
						continue
					}
					row = append(row, fmt.Sprintf("%.2fx", ref/epochTime(p, nf)))
				}
				tab.AddRow(row...)
			}
			return []*Table{tab}
		},
	})

	register(&Experiment{
		ID:    "fig14",
		Title: "Fig. 14: impact of the team count d on per-epoch time",
		Paper: "P=14: B-SAG d=7 fastest (≈1.25× over d=1), d=14 slower than d=7; R-SAG d=2 slightly faster than d=1. P=12: B-SAG d=6 fastest; R-SAG d=4 not better than d=2; B-SAG d=4 slower than d=3.",
		Run: func(q Quality) []*Table {
			return []*Table{dImpactTable(q, 14), dImpactTable(q, 12)}
		},
	})

	register(&Experiment{
		ID:    "fig15",
		Title: "Fig. 15: per-epoch time stability across training epochs",
		Paper: "The optimal d (B7 at P=14, B6 at P=12) is steadily fastest in each of the first ten epochs, so users can pick d after one epoch.",
		Run: func(q Quality) []*Table {
			var tables []*Table
			c := train.CaseByID(1)
			epochs := pick(q, 4, 10)
			for _, p := range []int{14, 12} {
				configs := dConfigs(p)
				tab := &Table{
					Title:   fmt.Sprintf("Fig. 15 — per-epoch time (s) across epochs, P=%d (VGG-16/CIFAR-10)", p),
					Columns: append([]string{"epoch"}, configNames(configs)...),
				}
				// One point per epoch; an epoch's time is the clock between two.
				points := make([][]train.Point, len(configs))
				for i, nc := range configs {
					points[i] = runConvergence(c.ID, p, 1e-2, comm.Ethernet, nc, epochs*c.ItersPerEpoch, c.ItersPerEpoch, 15).Points
				}
				for e := 0; e < epochs; e++ {
					row := []any{e + 1}
					for i := range configs {
						prev := 0.0
						if e > 0 {
							prev = points[i][e-1].Time
						}
						row = append(row, points[i][e].Time-prev)
					}
					tab.AddRow(row...)
				}
				tables = append(tables, tab)
			}
			return tables
		},
	})

	register(&Experiment{
		ID:    "fig18",
		Title: "Fig. 18: per-update time on an RDMA network, 5 workers",
		Paper: "VGG-19: SparDL communication 4.0/3.4/3.0× faster than TopkDSA/TopkA/Ok-Topk. BERT: 4.2× faster than Ok-Topk.",
		Run: func(q Quality) []*Table {
			iters := pick(q, 8, 30)
			return []*Table{
				speedupTable("Fig. 18(a) — VGG-19/CIFAR-100 (P=5, RDMA)", 2, 5, comm.RDMA, iters, 18, paperBaselines()),
				speedupTable("Fig. 18(b) — BERT/Wikipedia (P=5, RDMA)", 7, 5, comm.RDMA, iters, 18, []NamedFactory{
					{"OkTopk", sparsecoll.NewOkTopk},
					{"SparDL", sparDL(core.Options{})},
				}),
			}
		},
	})
}

// dConfigs returns the paper's d-grid for Figs. 14/15 at the given P.
func dConfigs(p int) []NamedFactory {
	switch p {
	case 14:
		return []NamedFactory{
			{"1", sparDL(core.Options{})},
			{"R2", sparDL(core.Options{Teams: 2})},
			{"B2", sparDL(core.Options{Teams: 2, Variant: core.BSAG})},
			{"B7", sparDL(core.Options{Teams: 7, Variant: core.BSAG})},
			{"B14", sparDL(core.Options{Teams: 14, Variant: core.BSAG})},
		}
	case 12:
		return []NamedFactory{
			{"1", sparDL(core.Options{})},
			{"R2", sparDL(core.Options{Teams: 2})},
			{"R4", sparDL(core.Options{Teams: 4})},
			{"B2", sparDL(core.Options{Teams: 2, Variant: core.BSAG})},
			{"B3", sparDL(core.Options{Teams: 3, Variant: core.BSAG})},
			{"B4", sparDL(core.Options{Teams: 4, Variant: core.BSAG})},
			{"B6", sparDL(core.Options{Teams: 6, Variant: core.BSAG})},
			{"B12", sparDL(core.Options{Teams: 12, Variant: core.BSAG})},
		}
	}
	panic(fmt.Sprintf("expt: no d-grid for P=%d", p))
}

func configNames(cfgs []NamedFactory) []string {
	names := make([]string, len(cfgs))
	for i, c := range cfgs {
		names[i] = c.Name
	}
	return names
}

// dImpactTable measures the per-epoch time of each d at one P (Fig. 14):
// the per-update time averaged over every iteration of the run.
func dImpactTable(q Quality, p int) *Table {
	c := train.CaseByID(1) // VGG-16 on CIFAR-10, as in Section IV-F
	tab := &Table{
		Title:   fmt.Sprintf("Fig. 14 — per-epoch time vs d, P=%d (VGG-16/CIFAR-10)", p),
		Columns: []string{"config", "per-epoch(s)", "vs d=1"},
	}
	var base float64
	for _, nc := range dConfigs(p) {
		r := runConvergence(c.ID, p, 1e-2, comm.Ethernet, nc, pick(q, 2, 6)*c.ItersPerEpoch, 0, 14)
		perEpoch := r.PerUpdateTime * float64(c.ItersPerEpoch)
		if nc.Name == "1" {
			base = perEpoch
		}
		tab.AddRow(nc.Name, perEpoch, fmt.Sprintf("%.2fx", base/perEpoch))
	}
	return tab
}
