package expt

import (
	"fmt"

	"spardl/internal/core"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
	"spardl/internal/train"
	"spardl/internal/wire"
)

// wiredBaselines returns the paper's Fig. 8 method set charged by the given
// accounting mode.
func wiredBaselines(mode wire.Mode) []NamedFactory {
	tuned := func(f sparsecoll.Factory) sparsecoll.Factory {
		return sparsecoll.Tuned(f, mode)
	}
	return []NamedFactory{
		{"TopkDSA", tuned(sparsecoll.NewTopkDSA)},
		{"TopkA", tuned(sparsecoll.NewTopkA)},
		{"OkTopk", tuned(sparsecoll.NewOkTopk)},
		{"SparDL", sparDL(core.Options{Wire: mode})},
	}
}

// wireE2EProbe measures one steady-state synchronization (after a warmup
// iteration) and returns the worst-worker rounds and the cluster-wide
// received volume.
func wireE2EProbe(p, n, k int, nf NamedFactory) (rounds int, total int64) {
	rep := simnet.Run(p, simnet.Ethernet, func(rank int, ep *simnet.Endpoint) {
		r := nf.Factory(p, rank, n, k)
		g := make([]float32, n)
		syntheticGrad(g, 5, rank, 0)
		r.Reduce(ep, g)
		ep.SyncClock()
		ep.ResetStats()
		syntheticGrad(g, 5, rank, 1)
		r.Reduce(ep, g)
	})
	return rep.MaxRounds(), rep.TotalBytesRecv()
}

func init() {
	register(&Experiment{
		ID:    "ext-wire-e2e",
		Title: "Extension: end-to-end wire modes (negotiated codec vs COO accounting)",
		Paper: "The paper charges 2 COO elements (8 bytes) per sparse entry everywhere. This extension re-runs the Fig. 8/18 timing comparisons and a sparsity sweep with every collective's messages charged at the size of the negotiated COO/delta/bitmap/dense codec (Options.Wire = WireNegotiated) — the bytes the livenet and tcpnet backends really move — quantifying how far real wire volume sits below the paper's accounting.",
		Run: func(q Quality) []*Table {
			var tables []*Table

			// Sparsity sweep: cluster-wide bytes per synchronization.
			const p = 14
			n := pick(q, 1<<17, 1<<18)
			sweep := &Table{
				Title:   fmt.Sprintf("SparDL bytes on the wire per synchronization (P=%d, n=%d)", p, n),
				Columns: []string{"k/n", "wire", "rounds", "total BytesRecv", "saving vs COO"},
				Notes: []string{
					"total BytesRecv sums all workers for one steady-state synchronization",
					"savings shrink as k/n falls because varint gaps widen with sparsity",
				},
			}
			for _, ratio := range []float64{1e-2, 1e-3} {
				k := int(ratio * float64(n))
				var cooTotal int64
				for _, mode := range []core.WireMode{core.WireCOO, core.WireNegotiated} {
					nf := NamedFactory{"SparDL", sparDL(core.Options{Wire: mode})}
					rounds, total := wireE2EProbe(p, n, k, nf)
					saving := "-"
					if mode == core.WireCOO {
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
				profile simnet.Profile
				p       int
			}{
				{"Ethernet", simnet.Ethernet, 14},
				{"RDMA", simnet.RDMA, 5},
			} {
				c := train.CaseByID(2) // VGG-19/CIFAR-100, the Fig. 8/18 headline case
				tab := &Table{
					Title: fmt.Sprintf("Fig. 8/18-style per-update time — %s (P=%d, %s, k/n=1e-2)",
						c.Name, net.p, net.name),
					Columns: []string{"method", "wire", "comm(s)", "per-update(s)", "bytes/update", "saving vs COO"},
				}
				cooBytes := map[string]int64{}
				for _, mode := range []core.WireMode{core.WireCOO, core.WireNegotiated} {
					cfg := TimingConfig{
						Case: c, P: net.p, KRatio: 1e-2, Network: net.profile,
						Iters: pick(q, 6, 24), Warmup: pick(q, 3, 8), Seed: 88,
					}
					for _, nf := range wiredBaselines(mode) {
						r := MeasureTiming(cfg, nf, 0)
						saving := "-"
						if mode == core.WireCOO {
							cooBytes[nf.Name] = r.BytesRecvd
						} else if base := cooBytes[nf.Name]; base > 0 {
							saving = fmt.Sprintf("%.0f%%", 100*(1-float64(r.BytesRecvd)/float64(base)))
						}
						tab.AddRow(nf.Name, mode.String(), r.Comm, r.PerUpdate, r.BytesRecvd, saving)
					}
				}
				tables = append(tables, tab)
			}
			return tables
		},
	})
}
