// Benchmarks: BenchmarkExperiments runs every registered experiment (each
// table and figure of the paper's evaluation, the ablations and the
// extensions) at Quick scale, one sub-benchmark per id; run the
// paper-faithful scale with `go run ./cmd/spardl-bench -run <id> -full`.
package spardl_test

import (
	"testing"

	"spardl"
)

// BenchmarkExperiments runs each experiment of spardl.Experiments() as
// BenchmarkExperiments/<id>, so the list cannot fall behind the registry.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range spardl.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(e.Run(spardl.Quick)) == 0 {
					b.Fatalf("%s produced no tables", e.ID)
				}
			}
		})
	}
}

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
