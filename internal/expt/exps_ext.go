package expt

import (
	"fmt"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/sparsecoll"
	"spardl/internal/train"
)

// Extensions beyond the paper's evaluation, covering its stated future
// work (Section VI): behaviour in heterogeneous clusters.

func init() {
	register(&Experiment{
		ID:    "ext-hetero",
		Title: "Extension: heterogeneous cluster (the paper's future-work item i)",
		Paper: "Section VI: 'SparDL tries to accelerate All-Reduce, which is mainly used in homogeneous environments. [...] In the future, we can extend SparDL to this environment.' This extension measures how a compute straggler erodes the communication savings of every synchronous method.",
		Run: func(q Quality) []*Table {
			c := train.CaseByID(2)
			methods := []NamedFactory{
				{"OkTopk", sparsecoll.NewOkTopk},
				{"SparDL", sparDL(core.Options{})},
			}
			var tables []*Table
			for _, straggler := range []float64{1.0, 1.5, 2.0, 3.0} {
				skew := make([]float64, 14)
				for i := range skew {
					skew[i] = 1
				}
				skew[13] = straggler
				cfg := TimingConfig{
					Case: c, P: 14, KRatio: 1e-2, Network: comm.Ethernet,
					Iters: pick(q, 6, 20), Warmup: 3, Seed: 41, ComputeSkew: skew,
				}
				tab := &Table{
					Title:   fmt.Sprintf("Heterogeneous cluster — one straggler at %.1fx compute (VGG-19-like, P=14)", straggler),
					Columns: []string{"method", "per-update(s)", "comm(s)", "comm share"},
				}
				results := measureAll(cfg, methods, 0)
				for _, r := range results {
					tab.AddRow(r.Method, r.PerUpdate, r.Comm, fmt.Sprintf("%.0f%%", 100*r.Comm/r.PerUpdate))
				}
				spdl := results[1]
				ok := results[0]
				tab.Notes = append(tab.Notes, fmt.Sprintf(
					"SparDL end-to-end advantage: %.2fx — synchronous methods all wait for the straggler, so communication savings matter less as skew grows",
					ok.PerUpdate/spdl.PerUpdate))
				tables = append(tables, tab)
			}
			return tables
		},
	})
}
