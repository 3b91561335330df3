package expt

import (
	"fmt"
	"math/rand"

	"spardl/internal/collective"
	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/simnet"
	"spardl/internal/sparse"
	"spardl/internal/sparsecoll"
	"spardl/internal/train"
)

func init() {
	register(&Experiment{
		ID:    "ablation-lazy",
		Title: "Ablation: lazy vs eager block sparsification in SRS",
		Paper: "Section III-B 'Optimization for SRS': deferring sparsification to just before transmission removes unnecessary top-k passes, reducing per-iteration time and discarding fewer gradients.",
		Run: func(q Quality) []*Table {
			c := train.CaseByID(1)
			lazy := runConvergence(1, 14, 1e-2, comm.Ethernet, NamedFactory{"lazy", sparDL(core.Options{})}, pick(q, 5, 20), 0, 31)
			eager := runConvergence(1, 14, 1e-2, comm.Ethernet, NamedFactory{"eager", sparDL(core.Options{Eager: true})}, pick(q, 5, 20), 0, 31)
			tab := &Table{
				Title:   "SRS sparsification timing ablation (P=14, VGG-16-like)",
				Columns: []string{"variant", "comm(s)", "comp(s)", "per-update(s)"},
				Notes: []string{
					"in this cost model both variants scan each dense block once, so lazy is at most marginally faster in any column;",
					"the optimization's second benefit — fewer discarded gradients — shows in the convergence table below",
				},
			}
			tab.AddRow("SparDL (lazy, paper)", lazy.CommTime, lazy.CompTime, lazy.PerUpdateTime)
			tab.AddRow("SparDL-eager (ablation)", eager.CommTime, eager.CompTime, eager.PerUpdateTime)

			iters := c.ItersPerEpoch * pick(q, 3, 10)
			rl := runConvergence(1, 14, 1e-3, comm.Ethernet, NamedFactory{"lazy", sparDL(core.Options{})}, iters, 0, 31)
			re := runConvergence(1, 14, 1e-3, comm.Ethernet, NamedFactory{"eager", sparDL(core.Options{Eager: true})}, iters, 0, 31)
			conv := &Table{
				Title:   "Convergence after equal iterations (k/n=1e-3)",
				Columns: []string{"variant", "final-acc", "comp(s)/update"},
			}
			conv.AddRow("lazy", rl.FinalMetric, rl.CompTime)
			conv.AddRow("eager", re.FinalMetric, re.CompTime)
			return []*Table{tab, conv}
		},
	})

	register(&Experiment{
		ID:    "ablation-sga",
		Title: "Ablation: the SGA dilemma itself — message growth without block top-k",
		Paper: "Section I / Fig. 1: summing sparse gradients from different workers grows the non-zero set at every step, degrading toward dense transmission unless selection maintains the size.",
		Run: func(q Quality) []*Table {
			const p, n = 16, 1 << 16
			k := n / 100
			plain := sgaGrowth(p, n, k, false)
			maintained := sgaGrowth(p, n, k, true)
			tab := &Table{
				Title:   fmt.Sprintf("Reduce-scatter message size per step (P=%d, n=%d, k=%d, COO elements)", p, n, k),
				Columns: []string{"step", "no selection (SGA)", "block top-k maintained", "density ratio"},
				Notes: []string{
					"the reduce-scatter window halves each step, so maintained messages shrink ~2x per step",
					"without selection the summed sets keep ≈k/2 entries per step: non-zero density doubles every summation (the SGA dilemma) and the transfer degrades toward dense",
				},
			}
			for i := range plain {
				tab.AddRow(i+1, plain[i], maintained[i], fmt.Sprintf("%.2fx", float64(plain[i])/float64(maintained[i])))
			}
			return []*Table{tab}
		},
	})

	register(&Experiment{
		ID:    "ablation-allgather",
		Title: "Ablation: Bruck vs direct-send all-gather on non-power-of-two clusters",
		Paper: "Section II/III-B: Bruck all-gather reaches the bandwidth lower bound in ⌈log₂P⌉ rounds for any P, which is why SparDL uses it for every gather phase.",
		Run: func(q Quality) []*Table {
			tab := &Table{
				Title:   "Final all-gather of 2k/P-sized blocks: rounds and α-time",
				Columns: []string{"P", "bruck rounds", "direct rounds", "bruck α-time", "direct α-time", "volume ratio"},
			}
			for _, p := range []int{11, 13, 14, 16} {
				blockBytes := 8 * 100
				run := func(direct bool) (int, float64, int64) {
					rep := simnet.Run(p, comm.Profile{Name: "a", Alpha: 1, Beta: 0}, func(rank int, ep *simnet.Endpoint) {
						own := &sparse.Chunk{Idx: make([]int32, 100), Val: make([]float32, 100)}
						if direct {
							for j := 0; j < p; j++ {
								if j != rank {
									ep.Send(j, own, blockBytes)
								}
							}
							for j := 0; j < p; j++ {
								if j != rank {
									ep.Recv(j)
								}
							}
						} else {
							collective.BruckAllGather(ep, collective.WorldRanks(p), rank, own,
								func(any) int { return blockBytes })
						}
					})
					return rep.MaxRounds(), rep.Time, rep.MaxBytesRecv()
				}
				br, bt, bv := run(false)
				dr, dt, dv := run(true)
				tab.AddRow(p, br, dr, bt, dt, fmt.Sprintf("%.2f", float64(bv)/float64(dv)))
			}
			return []*Table{tab}
		},
	})

	register(&Experiment{
		ID:    "ablation-dense",
		Title: "Ablation: sparse methods vs dense all-reduce",
		Paper: "Section I motivation: S-SGD's dense synchronization dominates iteration time; top-k sparsification to ~1% density removes most of it.",
		Run: func(q Quality) []*Table {
			methods := []NamedFactory{
				{"Dense", sparsecoll.NewDense},
				{"TopkA", sparsecoll.NewTopkA},
				{"SparDL", sparDL(core.Options{})},
			}
			tab := &Table{
				Title:   "Per-update time, dense vs sparse (VGG-19-like, P=14, k/n=1e-2)",
				Columns: []string{"method", "comm(s)", "per-update(s)", "vs dense comm"},
			}
			var dense float64
			for _, nf := range methods {
				r := runConvergence(2, 14, 1e-2, comm.Ethernet, nf, pick(q, 4, 10), 0, 33)
				if nf.Name == "Dense" {
					dense = r.CommTime
				}
				tab.AddRow(r.Method, r.CommTime, r.PerUpdateTime, fmt.Sprintf("%.1fx", dense/r.CommTime))
			}
			return []*Table{tab}
		},
	})
}

// sgaGrowth simulates the reduce-scatter phase of an efficient all-reduce
// (recursive halving) over sparse top-k gradients and reports the average
// message size (COO elements) per step, with or without SparDL's block-wise
// top-k maintenance. This quantifies Fig. 1's dilemma directly, without the
// fabric: the arithmetic is what matters.
func sgaGrowth(p, n, k int, maintain bool) []int {
	rng := rand.New(rand.NewSource(77))
	chunks := make([]*sparse.Chunk, p)
	for w := range chunks {
		dense := make([]float32, n)
		for i := range dense {
			v := float32(rng.NormFloat64())
			dense[i] = v * v * v
		}
		chunks[w] = sparse.TopKDense(dense, 0, n, k)
	}
	lo := make([]int, p)
	hi := make([]int, p)
	for w := range hi {
		hi[w] = n
	}
	var sizes []int
	for g := p; g > 1; g /= 2 {
		half := g / 2
		total, count := 0, 0
		next := make([]*sparse.Chunk, p)
		nextLo := make([]int, p)
		nextHi := make([]int, p)
		for w := 0; w < p; w++ {
			groupLo := w / g * g
			inLower := w-groupLo < half
			partner := w + half
			if !inLower {
				partner = w - half
			}
			mid := lo[w] + (hi[w]-lo[w])/2
			keepLo, keepHi := lo[w], mid
			if !inLower {
				keepLo, keepHi = mid, hi[w]
			}
			// The partner sends the part of its chunk inside our kept
			// window (its own discard half).
			recv := chunks[partner].Slice(int32(keepLo), int32(keepHi))
			total += recv.WireElems()
			count++
			merged := sparse.MergeAdd(chunks[w].Slice(int32(keepLo), int32(keepHi)), recv)
			if maintain {
				share := k * (keepHi - keepLo) / n
				if share < 1 {
					share = 1
				}
				merged, _ = sparse.TopKChunk(merged, share)
			}
			next[w] = merged
			nextLo[w], nextHi[w] = keepLo, keepHi
		}
		chunks, lo, hi = next, nextLo, nextHi
		sizes = append(sizes, total/count)
	}
	return sizes
}
