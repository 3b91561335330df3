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
