package train

import (
	"fmt"
	"math"
	"testing"
	"time"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/livenet"
	"spardl/internal/simnet"
	"spardl/internal/tcpnet"
)

// TestShardedEvalMatchesOneShard: every rank scores its own rows of the
// held-out batch and rank 0 folds their sums, so the point must carry the
// bits of the whole batch scored by one replica — for every case, at P
// from 1 to 14 (batches of 1 and 5 rows leave shards empty, rank 0's
// included) and on every fabric.
func TestShardedEvalMatchesOneShard(t *testing.T) {
	all := []int{1, 2, 3, 4, 5, 6, 7}
	for _, fb := range []struct {
		name  string
		b     comm.Backend
		cases []int
	}{
		{"simnet", simnet.Backend(comm.Ethernet), all},
		{"livenet", livenet.NewBackend(), all},
		{"tcpnet-local", tcpnet.LocalBackend(20 * time.Second), []int{3}},
	} {
		for _, id := range fb.cases {
			t.Run(fmt.Sprintf("%s/case%d", fb.name, id), func(t *testing.T) {
				for _, p := range []int{1, 2, 3, 4, 7, 14} {
					for _, rows := range []int{1, 5, 0} { // 0: the case's default
						checkShardedEval(t, fb.b, id, p, rows)
					}
				}
			})
		}
	}
}

// TestShardedEvalAfterShrink: after a shrink the generation has fewer
// workers than Config.P, and the shards must follow the generation's P —
// the held-out batch is still scored whole, on both in-process fabrics.
func TestShardedEvalAfterShrink(t *testing.T) {
	for _, fb := range []struct {
		name string
		b    comm.Backend
	}{
		{"simnet", simnet.Backend(comm.Ethernet)},
		{"livenet", livenet.NewBackend()},
	} {
		t.Run(fb.name, func(t *testing.T) {
			for id := 1; id <= 7; id++ {
				for _, p := range []int{2, 3} {
					for _, rows := range []int{1, 5, 0} {
						checkGenerationEval(t, fb.b, id, 4, p, rows)
					}
				}
			}
		})
	}
}

// checkShardedEval trains case id for one iteration at P = p and compares
// the final point with rank 0's replica scoring the whole held-out batch.
func checkShardedEval(t *testing.T, b comm.Backend, id, p, rows int) {
	t.Helper()
	checkGenerationEval(t, b, id, p, p, rows)
}

// checkGenerationEval is checkShardedEval for a generation of p workers in
// a session configured for cfgP ≥ p.
func checkGenerationEval(t *testing.T, b comm.Backend, id, cfgP, p, rows int) {
	t.Helper()
	s, err := newSession(Config{Case: CaseByID(id), P: cfgP, KRatio: 0.01,
		Factory: core.NewFactory(core.Options{}), Iters: 1, Seed: 17, EvalBatch: rows})
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*replica, p)
	b.Run(p, func(rank int, ep comm.Endpoint) {
		reps[rank] = s.newReplica()
		s.work(comm.Membership{P: p, Rank: rank, ID: rank}, ep, reps[rank])
	})
	got := s.result()
	loss, metric := reps[0].model.Loss(s.held)
	if want := float64(loss.Data[0]); math.Float64bits(got.FinalLoss) != math.Float64bits(want) ||
		math.Float64bits(got.FinalMetric) != math.Float64bits(metric) {
		t.Errorf("case %d Config.P=%d P=%d rows=%d: sharded loss %v metric %v, one shard %v %v",
			id, cfgP, p, s.held.Size(), got.FinalLoss, got.FinalMetric, want, metric)
	}
}
