package core

import (
	"fmt"
	"math/rand"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/livenet"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
	"spardl/internal/tcpnet"
)

// The mass ledger: the global residual collection of Section III-C promises
// that nothing a selection drops is lost. Write G_w = g_w + r_w for worker
// w's residual-augmented gradient, r'_w for the residual it stores after
// the sync and out for the global result. Each reducer satisfies one of the
// laws below at every index of every sync, and the ledger asserts it with
// ==, not within a tolerance.
//
// That is possible because every value is a dyadic rational far from
// float32's precision: gradients are integers in [−64, 64] times 1/16, and
// every residual share SparDL applies is a power of two (R-SAG's finest is
// 1/16 at d = 16). On this grid no output or residual is finer than 2⁻⁷ or
// larger than 49 in magnitude, 13 of float32's 24 significand bits. Every
// float32 sum the reducers make is then exact and independent of order, so
// a law holds bit for bit or the reducer is wrong.
type ledgerLaw int

const (
	// lawConserves: Σ_w G_w = out + Σ_w r'_w. SparDL GRES, TopkA, TopkDSA,
	// and Ok-Topk: its residual is PRES, but it drops only whole sums, and
	// every contributor keeps its part of those.
	lawConserves ledgerLaw = iota
	// lawPRES: r'_w ∈ {0, G_w}, and r'_w = 0 wherever out ≠ 0. SparDL PRES
	// stores nothing of what was dropped inside the collective.
	lawPRES
	// lawLRES: r'_w ∈ {0, G_w}. SparDL LRES zeroes what the worker itself
	// selected, whether or not it reached out.
	lawLRES
	// lawGTopk: r'_w ∈ {0, G_w}, and r'_w = G_w wherever out = 0. What the
	// reduction tree drops at an index that survives elsewhere is lost.
	lawGTopk
	// lawDense: Σ_w g_w = out; there is no residual.
	lawDense
)

func (l ledgerLaw) String() string {
	return [...]string{"Σ G = out + Σ r'", "PRES", "LRES", "gTopk", "Σ g = out"}[l]
}

// ledgerGrads draws iters × p gradients of length n on the ledger's grid:
// integers in [−64, 64] times 1/16. Equal magnitudes are frequent, so
// selections break ties all the time.
func ledgerGrads(iters, p, n int, seed int64) [][][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][][]float32, iters)
	for it := range out {
		out[it] = make([][]float32, p)
		for w := range out[it] {
			g := make([]float32, n)
			for i := range g {
				g[i] = float32(rng.Intn(129)-64) / 16
			}
			out[it][w] = g
		}
	}
	return out
}

// checkLedger checks law at every index of every sync of a run whose
// per-sync outputs and residuals runResidualsOn returned. It returns the
// first violation ("" if none) and the number of index-syncs at which the
// conservation equation fails, which is 0 under lawConserves.
func checkLedger(law ledgerLaw, grads, outs, res [][][]float32) (violation string, lost int) {
	p, n := len(grads[0]), len(grads[0][0])
	G := make([]float32, p)
	for it := range grads {
		for i := 0; i < n; i++ {
			// The ledger's own sums are float64: exact whatever the grid.
			var in, left, raw float64
			for w := 0; w < p; w++ {
				G[w] = grads[it][w][i]
				raw += float64(G[w])
				if it > 0 && res[it-1][w] != nil {
					G[w] += res[it-1][w][i]
				}
				in += float64(G[w])
				if res[it][w] != nil {
					left += float64(res[it][w][i])
				}
			}
			o := float64(outs[it][0][i])
			if in != o+left {
				lost++
			}
			bad := ""
			switch law {
			case lawConserves:
				if in != o+left {
					bad = fmt.Sprintf("Σ G = %g, out + Σ r' = %g + %g", in, o, left)
				}
			case lawDense:
				if raw != o {
					bad = fmt.Sprintf("Σ g = %g, out = %g", raw, o)
				}
			default:
				for w := 0; w < p && bad == ""; w++ {
					r := res[it][w][i]
					switch {
					case r != 0 && r != G[w]:
						bad = fmt.Sprintf("worker %d: r' = %g, neither 0 nor G = %g", w, r, G[w])
					case law == lawPRES && o != 0 && r != 0:
						bad = fmt.Sprintf("worker %d: out = %g but r' = %g", w, o, r)
					case law == lawGTopk && o == 0 && r != G[w]:
						bad = fmt.Sprintf("worker %d: out = 0 but r' = %g, G = %g", w, r, G[w])
					}
				}
			}
			if bad != "" && violation == "" {
				violation = fmt.Sprintf("sync %d, index %d: %s", it, i, bad)
			}
		}
	}
	return violation, lost
}

// ledgerRow is one reducer configuration of the ledger.
type ledgerRow struct {
	name string
	p    int
	f    sparsecoll.Factory
	law  ledgerLaw
}

// noResidual gives the dense all-reduce the Residual runResidualsOn reads.
type noResidual struct{ sparsecoll.Reducer }

func (noResidual) Residual() []float32 { return nil }

// ledgerRows is the ledger's grid at P = 1 … maxP: SparDL GRES at every
// team count d | P, under every SAG algorithm that d runs, lazy and eager;
// SparDL PRES and LRES at every d; every baseline wherever it is defined.
// P = 1 is the only row that reaches Ok-Topk's single-worker branch.
func ledgerRows(maxP int) []ledgerRow {
	var rows []ledgerRow
	spardl := func(p int, sag string, opts Options, law ledgerLaw) {
		name := fmt.Sprintf("P=%d/d=%d/%s/%s", p, opts.Teams, sag, opts.Residual)
		if opts.Eager {
			name += "/eager"
		}
		rows = append(rows, ledgerRow{name, p, NewFactory(opts), law})
	}
	for p := 1; p <= maxP; p++ {
		for d := 1; d <= p; d++ {
			if p%d != 0 {
				continue
			}
			// Auto runs R-SAG at a power-of-two d > 1; at any other d > 1
			// it runs B-SAG, which the forced row already covers.
			type sag struct {
				name string
				v    Variant
			}
			sags := []sag{{"Auto", Auto}}
			if d > 1 {
				sags = []sag{{"B-SAG", BSAG}}
				if d&(d-1) == 0 {
					sags = append(sags, sag{"R-SAG", Auto})
				}
			}
			for _, s := range sags {
				for _, eager := range []bool{false, true} {
					spardl(p, s.name, Options{Teams: d, Variant: s.v, Eager: eager}, lawConserves)
				}
			}
			spardl(p, "Auto", Options{Teams: d, Residual: PRES}, lawPRES)
			spardl(p, "Auto", Options{Teams: d, Residual: LRES}, lawLRES)
		}
		baseline := func(name string, f sparsecoll.Factory, law ledgerLaw) {
			rows = append(rows, ledgerRow{fmt.Sprintf("P=%d/%s", p, name), p, f, law})
		}
		baseline("TopkA", sparsecoll.NewTopkA, lawConserves)
		baseline("TopkDSA", sparsecoll.NewTopkDSA, lawConserves)
		baseline("OkTopk", sparsecoll.NewOkTopk, lawConserves)
		if sparsecoll.GTopkValid(p) == nil {
			baseline("gTopk", sparsecoll.NewGTopk, lawGTopk)
		}
		baseline("Dense", sparsecoll.NewDense, lawDense)
	}
	return rows
}

// runLedger runs row on b for iters syncs of length n with k = 3P and
// returns the law's first violation, or "".
func runLedger(b comm.Backend, row ledgerRow, n, iters int, seed int64) string {
	grads := ledgerGrads(iters, row.p, n, seed)
	outs, res, _ := runResidualsOn(b, row.p, n, iters, grads, func(rank int) residualReducer {
		r := row.f(row.p, rank, n, 3*row.p)
		if c, ok := r.(residualReducer); ok {
			return c
		}
		return noResidual{r}
	})
	bad, _ := checkLedger(row.law, grads, outs, res)
	return bad
}

// TestMassLedger asserts each reducer's law, bit for bit, on every backend:
// the full grid P = 1 … 16 on simnet, livenet and loopback TCP.
func TestMassLedger(t *testing.T) {
	const n, iters = 300, 3
	for _, b := range []struct {
		name string
		b    comm.Backend
	}{
		{"simnet", simnet.Backend(unit)},
		{"livenet", livenet.NewBackend()},
		{"tcpnet-local", tcpnet.LocalBackend(0)},
	} {
		for _, row := range ledgerRows(16) {
			t.Run(b.name+"/"+row.name, func(t *testing.T) {
				if bad := runLedger(b.b, row, n, iters, int64(row.p)); bad != "" {
					t.Fatalf("%s fails: %s", row.law, bad)
				}
			})
		}
	}
}
