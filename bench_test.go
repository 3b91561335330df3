// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation, plus the ablation studies. Each bench executes the
// corresponding experiment at Quick scale; run the paper-faithful scale
// with `go run ./cmd/spardl-bench -run <id> -full`.
package spardl_test

import (
	"testing"

	"spardl"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := spardl.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables := e.Run(spardl.Quick)
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// BenchmarkTable1 verifies the communication-complexity table (Table I).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig7 regenerates the N_t stability series (Fig. 7).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates per-update times in four cases (Fig. 8).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates convergence-vs-time in four cases (Fig. 9).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates ResNet-50/BERT per-update times (Fig. 10).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates ResNet-50/BERT convergence (Fig. 11).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12a regenerates the scalability speedups (Fig. 12a).
func BenchmarkFig12a(b *testing.B) { benchExperiment(b, "fig12a") }

// BenchmarkFig12b regenerates 8-worker convergence incl. gTopk (Fig. 12b).
func BenchmarkFig12b(b *testing.B) { benchExperiment(b, "fig12b") }

// BenchmarkFig13 regenerates R-SAG/B-SAG convergence (Fig. 13).
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14 regenerates the impact-of-d tables (Fig. 14).
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15 regenerates per-epoch stability across epochs (Fig. 15).
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16 regenerates the k/n sweep (Fig. 16).
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkFig17 regenerates the GRES/PRES/LRES comparison (Fig. 17).
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17") }

// BenchmarkFig18 regenerates the RDMA-network per-update times (Fig. 18).
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18") }

// BenchmarkAblationLazySparsify measures the paper's "Optimization for
// SRS" (lazy vs eager block sparsification).
func BenchmarkAblationLazySparsify(b *testing.B) { benchExperiment(b, "ablation-lazy") }

// BenchmarkAblationSGAGrowth quantifies the SGA dilemma itself.
func BenchmarkAblationSGAGrowth(b *testing.B) { benchExperiment(b, "ablation-sga") }

// BenchmarkAblationAllGather compares Bruck vs direct-send all-gather.
func BenchmarkAblationAllGather(b *testing.B) { benchExperiment(b, "ablation-allgather") }

// BenchmarkAblationDense compares sparse methods against dense all-reduce.
func BenchmarkAblationDense(b *testing.B) { benchExperiment(b, "ablation-dense") }

// BenchmarkExtHetero measures straggler impact in a heterogeneous cluster
// (the paper's future-work extension, Section VI).
func BenchmarkExtHetero(b *testing.B) { benchExperiment(b, "ext-hetero") }

// BenchmarkExtWire measures negotiated wire encodings for sparse messages.
func BenchmarkExtWire(b *testing.B) { benchExperiment(b, "ext-wire") }

// BenchmarkExtWireE2E regenerates the end-to-end wire-mode comparison.
func BenchmarkExtWireE2E(b *testing.B) { benchExperiment(b, "ext-wire-e2e") }

// benchReduceOnce isolates one steady-state SparDL synchronization at
// paper-like sizes (n=1M, k=10k, P=14) — the core-library hot path — under
// one wire mode, via the canonical spardl.ReduceBench harness (shared with
// spardl-bench -reduce-baseline, so the committed baseline and this
// benchmark measure the identical workload). What it measures is the
// marginal cost of one more ReduceInto, which the arena allocator keeps
// allocation-free.
func benchReduceOnce(b *testing.B, mode spardl.WireMode) {
	b.Helper()
	const p, n, k = 14, 1 << 20, 1 << 20 / 100
	rb, err := spardl.NewReduceBench(p, n, k, mode)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Iterate()
	}
}

// BenchmarkReduceOnce is the COO-accounting baseline of the hot path.
func BenchmarkReduceOnce(b *testing.B) { benchReduceOnce(b, spardl.WireCOO) }

// BenchmarkReduceOnceNegotiated sizes every message through the codec,
// once at the owner and once per all-gather forwarding hop; the sizing
// passes must stay cheap.
func BenchmarkReduceOnceNegotiated(b *testing.B) { benchReduceOnce(b, spardl.WireNegotiated) }
