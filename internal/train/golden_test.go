package train

import (
	"math"
	"runtime"
	"testing"

	"spardl/internal/core"
	"spardl/internal/simnet"
)

// TestGoldenTrajectory pins the held-out losses of two short runs to the
// bits recorded before the MatMul kernels were register-blocked (PR 20's
// parent): compute-side work that is meant to leave every gradient
// bit-identical — blocking, buffer reuse, a fused pass — fails here the
// moment one rounding moves, because top-k selection amplifies a single
// ulp into a different trajectory within a few iterations. Differential
// tests compare a change with its own oracle; this compares it with
// history.
func TestGoldenTrajectory(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64; other architectures may fuse multiply-add")
	}
	for _, g := range []struct {
		caseID, iters, evalEvery int
		losses                   []uint64 // math.Float64bits of each eval point's loss; the last is FinalLoss
	}{
		{3, 30, 10, []uint64{0x400c25a940000000, 0x3fff2ee7c0000000, 0x3ff1dfa340000000}}, // ResMLP
		{5, 10, 5, []uint64{0x3fe614ed60000000, 0x3fe61bf3c0000000}},                      // LSTM
	} {
		res := Run(Config{Case: CaseByID(g.caseID), P: 4, KRatio: 0.01, Network: simnet.Ethernet,
			Factory: core.NewFactory(core.Options{}), Iters: g.iters, Seed: 7000, EvalEvery: g.evalEvery})
		if len(res.Points) != len(g.losses) {
			t.Fatalf("case %d: %d eval points, want %d", g.caseID, len(res.Points), len(g.losses))
		}
		for i, p := range res.Points {
			if got := math.Float64bits(p.Loss); got != g.losses[i] {
				t.Errorf("case %d iter %d: loss %v (%#x), recorded %v (%#x)", g.caseID, p.Iter,
					p.Loss, got, math.Float64frombits(g.losses[i]), g.losses[i])
			}
		}
		if got := math.Float64bits(res.FinalLoss); got != g.losses[len(g.losses)-1] {
			t.Errorf("case %d: FinalLoss %v (%#x), recorded %#x", g.caseID, res.FinalLoss, got, g.losses[len(g.losses)-1])
		}
	}
}
