// Quickstart: eight simulated workers synchronize one sparse gradient with
// SparDL and print the α-β cost each worker paid. This is the smallest
// possible tour of the public API: a fabric, one reducer per worker, one
// ReduceInto call — plus, at the end, the one-knob upgrade to the layer-wise
// bucketed pipeline that overlaps communication with the backward pass.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"spardl"
)

func main() {
	const (
		p = 8     // workers
		n = 10000 // dense gradient length
		k = 100   // global sparse budget (k/n = 1%)
	)

	outs := make([][]float32, p)
	report := spardl.RunCluster(p, spardl.Ethernet, func(rank int, ep *spardl.Endpoint) {
		reducer, err := spardl.New(p, rank, n, k, spardl.Options{})
		if err != nil {
			log.Fatal(err)
		}

		// Every worker contributes its own gradient (here: random values).
		rng := rand.New(rand.NewSource(int64(rank)))
		grad := make([]float32, n)
		for i := range grad {
			grad[i] = float32(rng.NormFloat64())
		}

		outs[rank] = make([]float32, n)
		reducer.ReduceInto(ep, grad, outs[rank])
	})

	// All replicas must end bit-identical — verify.
	for w := 1; w < p; w++ {
		for i := range outs[0] {
			if outs[w][i] != outs[0][i] {
				log.Fatalf("worker %d disagrees at index %d", w, i)
			}
		}
	}
	nonzero := 0
	for _, v := range outs[0] {
		if v != 0 {
			nonzero++
		}
	}

	fmt.Printf("synchronized %d workers; global gradient holds %d of %d entries (%.1f%%)\n",
		p, nonzero, n, 100*float64(nonzero)/float64(n))
	fmt.Printf("virtual completion time: %.3fms\n", report.Time*1e3)
	for rank, s := range report.PerWorker {
		fmt.Printf("  worker %d: %d rounds, %d bytes received\n", rank, s.Rounds, s.BytesRecv)
	}
	fmt.Printf("cost model check: 2⌈log₂P⌉ = %d rounds, 4k(P-1)/P = %d wire elements\n",
		2*3, 4*k*(p-1)/p)

	// The same reduction on the live backend: real goroutines exchanging
	// real bytes — every sparse message is encoded and decoded through the
	// wire codecs — timed on the wall clock. The result must match the
	// simulator bit for bit; only the clock's meaning changes.
	liveOuts := make([][]float32, p)
	liveReport := spardl.LiveBackend().Run(p, func(rank int, ep spardl.CommEndpoint) {
		reducer, err := spardl.New(p, rank, n, k, spardl.Options{})
		if err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(rank)))
		grad := make([]float32, n)
		for i := range grad {
			grad[i] = float32(rng.NormFloat64())
		}
		liveOuts[rank] = make([]float32, n)
		reducer.ReduceInto(ep, grad, liveOuts[rank])
	})
	for w := 0; w < p; w++ {
		for i := range outs[w] {
			if liveOuts[w][i] != outs[w][i] {
				log.Fatalf("live backend diverges from simulator at worker %d index %d", w, i)
			}
		}
	}
	fmt.Printf("\nlive backend agrees bit-for-bit; real wall time %.3fms, %d bytes actually serialized\n",
		liveReport.Time*1e3, liveReport.TotalBytesRecv())

	// Pipelined & bucketed synchronization: the same training session with
	// the monolithic all-reduce versus per-layer buckets that launch each
	// sparse all-reduce as soon as its backward slices finish. The pipeline
	// is one knob on TrainConfig; ExposedComm is the communication that
	// still delayed the iteration, OverlapSaved what hid under compute.
	train := func(pl *spardl.PipelineConfig) *spardl.TrainResult {
		return spardl.Train(spardl.TrainConfig{
			Case: spardl.CaseByID(1), P: 4, KRatio: 0.01,
			Network: spardl.Ethernet, Factory: spardl.NewFactory(spardl.Options{}),
			Iters: 6, Seed: 7, PaperScaleComm: true,
			Pipeline: pl,
		})
	}
	mono := train(nil)
	piped := train(&spardl.PipelineConfig{}) // BucketBytes 0: one bucket per layer
	fmt.Printf("\npipelined synchronization (%d buckets):\n", piped.Buckets)
	fmt.Printf("  monolithic: per-update %.4fs, exposed comm %.4fs\n", mono.PerUpdateTime, mono.ExposedComm)
	fmt.Printf("  per-layer:  per-update %.4fs, exposed comm %.4fs (%.0f%% hidden under backprop)\n",
		piped.PerUpdateTime, piped.ExposedComm, 100*piped.OverlapSaved/(piped.OverlapSaved+piped.ExposedComm))
}
