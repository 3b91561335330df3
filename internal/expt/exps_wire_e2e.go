package expt

import (
	"fmt"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/sparsecoll"
	"spardl/internal/train"
	"spardl/internal/wire"
)

func init() {
	register(&Experiment{
		ID:    "ext-wire-e2e",
		Title: "Extension: end-to-end wire modes (negotiated codec vs COO accounting)",
		Paper: "The paper charges 2 COO elements (8 bytes) per sparse entry everywhere. This extension re-runs the Fig. 8/18 timing comparisons and a sparsity sweep with every collective's messages charged at the size of the negotiated COO/delta/bitmap/dense codec (sparsecoll.Tuned(f, wire.ModeNegotiated)) — the bytes the livenet and tcpnet backends really move — quantifying how far real wire volume sits below the paper's accounting.",
		Run: func(q Quality) []*Table {
			var tables []*Table

			// Sparsity sweep: cluster-wide bytes per synchronization.
			const p = 14
			c := train.CaseByID(2) // VGG-19/CIFAR-100, the Fig. 8/18 headline case
			n := modelN(c)
			sweep := &Table{
				Title:   fmt.Sprintf("SparDL bytes on the wire per synchronization (P=%d, %s's gradient, n=%d)", p, c.Name, n),
				Columns: []string{"k/n", "wire", "rounds", "total BytesRecv", "saving vs COO"},
				Notes: []string{
					"total BytesRecv sums all workers for one steady-state synchronization",
					"savings shrink as k/n falls because varint gaps widen with sparsity",
				},
			}
			for _, ratio := range []float64{1e-2, 1e-3} {
				k := int(ratio * float64(n))
				var cooTotal int64
				for _, mode := range []wire.Mode{wire.ModeCOO, wire.ModeNegotiated} {
					nf := NamedFactory{"SparDL", sparsecoll.Tuned(sparDL(core.Options{}), mode)}
					rep := costProbe(c, p, k, 5, nf)
					rounds, total := rep.MaxRounds(), rep.TotalBytesRecv()
					saving := "-"
					if mode == wire.ModeCOO {
						cooTotal = total
					} else {
						saving = fmt.Sprintf("%.0f%%", 100*(1-float64(total)/float64(cooTotal)))
					}
					sweep.AddRow(fmt.Sprintf("%.0e", ratio), mode.String(), rounds, total, saving)
				}
			}
			tables = append(tables, sweep)

			// Fig. 8-style per-update timing under both accounting modes.
			for _, net := range []struct {
				name    string
				profile comm.Profile
				p       int
			}{
				{"Ethernet", comm.Ethernet, 14},
				{"RDMA", comm.RDMA, 5},
			} {
				tab := &Table{
					Title: fmt.Sprintf("Fig. 8/18-style per-update time — %s (P=%d, %s, k/n=1e-2)",
						c.Name, net.p, net.name),
					Columns: []string{"method", "wire", "comm(s)", "per-update(s)", "bytes/update", "saving vs COO"},
				}
				cooBytes := map[string]int64{}
				for _, mode := range []wire.Mode{wire.ModeCOO, wire.ModeNegotiated} {
					for _, nf := range paperBaselines() {
						nf.Factory = sparsecoll.Tuned(nf.Factory, mode)
						r := runConvergence(c.ID, net.p, 1e-2, net.profile, nf, pick(q, 6, 24), 0, 88)
						saving := "-"
						if mode == wire.ModeCOO {
							cooBytes[nf.Name] = r.BytesPerIter
						} else if base := cooBytes[nf.Name]; base > 0 {
							saving = fmt.Sprintf("%.0f%%", 100*(1-float64(r.BytesPerIter)/float64(base)))
						}
						tab.AddRow(nf.Name, mode.String(), r.CommTime, r.PerUpdateTime, r.BytesPerIter, saving)
					}
				}
				tables = append(tables, tab)
			}
			return tables
		},
	})
}
