package pipeline

import (
	"math/rand"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/nn"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
)

func planFixture() ([]nn.Segment, []float64) {
	rng := rand.New(rand.NewSource(11))
	m := nn.NewMLPClassifier(rng, []int{32, 64, 48, 10})
	params := m.Params() // 6 tensors: W,b × 3 layers
	return nn.GradSegments(params), nn.GradReadyTimes(params, 0.1)
}

func TestPlanPerLayer(t *testing.T) {
	segs, ready := planFixture()
	buckets := Plan(segs, ready, 50, Config{BucketBytes: 0})
	if len(buckets) != len(segs) {
		t.Fatalf("per-layer plan has %d buckets for %d segments", len(buckets), len(segs))
	}
	// Launch order: back of the model first, strictly increasing ready times.
	for i, b := range buckets {
		want := segs[len(segs)-1-i]
		if b.Lo != want.Lo || b.Hi != want.Hi {
			t.Fatalf("bucket %d covers [%d,%d), want [%d,%d)", i, b.Lo, b.Hi, want.Lo, want.Hi)
		}
		if i > 0 && b.Ready <= buckets[i-1].Ready {
			t.Fatalf("ready times not increasing in launch order: %+v", buckets)
		}
		if b.K < 1 || b.K > b.Size() {
			t.Fatalf("bucket %d budget %d outside [1,%d]", i, b.K, b.Size())
		}
	}
	if last := buckets[len(buckets)-1]; last.Ready != 0.1 {
		t.Fatalf("frontmost bucket ready %g, want exactly computeTime", last.Ready)
	}
}

func TestPlanSingleBucket(t *testing.T) {
	segs, ready := planFixture()
	buckets := Plan(segs, ready, 50, Config{BucketBytes: 1 << 30})
	if len(buckets) != 1 {
		t.Fatalf("want a single bucket, got %d", len(buckets))
	}
	b := buckets[0]
	n := segs[len(segs)-1].Hi
	if b.Lo != 0 || b.Hi != n || b.First != 0 || b.Last != len(segs)-1 {
		t.Fatalf("single bucket %+v does not span the model (n=%d)", b, n)
	}
	// The whole budget lands on the single bucket — the monolithic
	// schedule keeps the paper's global k only if this is exact.
	if b.K != 50 {
		t.Fatalf("single-bucket budget %d, want 50", b.K)
	}
	if b.Ready != 0.1 {
		t.Fatalf("single-bucket ready %g, want exactly computeTime", b.Ready)
	}
}

func TestPlanFusionRespectsByteTarget(t *testing.T) {
	segs, ready := planFixture()
	n := segs[len(segs)-1].Hi
	const target = 2048 // 512 gradient values
	buckets := Plan(segs, ready, 64, Config{BucketBytes: target})
	if len(buckets) < 2 || len(buckets) >= len(segs) {
		t.Fatalf("fusion produced %d buckets from %d segments", len(buckets), len(segs))
	}
	covered := 0
	totalK := 0
	for i, b := range buckets {
		covered += b.Size()
		totalK += b.K
		// Every bucket but the frontmost meets the fusion target.
		if i < len(buckets)-1 && b.Size()*GradElemBytes < target {
			t.Fatalf("bucket %d holds %d bytes, below target %d", i, b.Size()*GradElemBytes, target)
		}
	}
	if covered != n {
		t.Fatalf("buckets cover %d of %d values", covered, n)
	}
	if totalK != 64 {
		t.Fatalf("budget shares sum to %d, want 64", totalK)
	}
}

func TestSplitBudgetTinyK(t *testing.T) {
	segs, ready := planFixture()
	// Fewer budget than buckets: every bucket still gets the floor of 1.
	buckets := Plan(segs, ready, 2, Config{})
	for i, b := range buckets {
		if b.K < 1 {
			t.Fatalf("bucket %d has budget %d", i, b.K)
		}
	}
}

// TestScheduleRunAssemblesGlobalGradient: an end-to-end pipeline run over
// the simulated cluster must produce identical replicas and a gradient
// assembled from every bucket.
func TestScheduleRunAssemblesGlobalGradient(t *testing.T) {
	const p, k = 4, 40
	outs := make([][]float32, p)
	var stats []simnet.Stats
	rep := simnet.Run(p, comm.Ethernet, func(rank int, ep *simnet.Endpoint) {
		rng := rand.New(rand.NewSource(21)) // same seed ⇒ identical replicas
		m := nn.NewMLPClassifier(rng, []int{32, 64, 48, 10})
		segs := nn.GradSegments(m.Params())
		ready := nn.GradReadyTimes(m.Params(), 0.05)
		sched := NewSchedule(sparsecoll.NewTopkA, p, rank, k, segs, ready, Config{})

		grng := rand.New(rand.NewSource(int64(rank)))
		for _, s := range segs {
			for i := range s.Param.Grad {
				s.Param.Grad[i] = float32(grng.NormFloat64())
			}
		}
		n := nn.ParamCount(m.Params())
		flat, out := make([]float32, n), make([]float32, n)
		sched.Run(ep, segs, flat, out)
		outs[rank] = out
	})
	stats = rep.PerWorker
	for w := 1; w < p; w++ {
		for i := range outs[0] {
			if outs[w][i] != outs[0][i] {
				t.Fatalf("worker %d disagrees at %d: %g vs %g", w, i, outs[w][i], outs[0][i])
			}
		}
	}
	nonzero := 0
	for _, v := range outs[0] {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("global gradient is empty")
	}
	for w, s := range stats {
		if s.ExposedComm+s.OverlapSaved <= 0 {
			t.Fatalf("worker %d has no overlap accounting: %+v", w, s)
		}
		// The pipelined iteration time is exactly compute end + exposed
		// communication: everything else ran hidden on the stream.
		got, want := rep.Clocks[w], 0.05+s.ExposedComm
		if diff := got - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("worker %d clock %g != compute end + exposed %g", w, got, want)
		}
	}
}
