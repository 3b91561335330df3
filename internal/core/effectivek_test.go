package core

import (
	"testing"

	"spardl/internal/comm"
	"spardl/internal/simnet"
)

// TestEffectiveKPinsSelectionDrift pins the arithmetic New documents: the
// enforced cluster-wide selection is m·max(1, ⌊k/m⌋), which silently
// exceeds the caller's k when k < m and undershoots when m ∤ k. If the
// clamp or the floor ever changes, this test fails before any experiment
// quietly shifts its sparsity.
func TestEffectiveKPinsSelectionDrift(t *testing.T) {
	cases := []struct {
		p, k, teams   int
		wantBlockK    int
		wantEffective int
	}{
		{p: 8, k: 3, teams: 1, wantBlockK: 1, wantEffective: 8},  // k < m: rounds up to m
		{p: 8, k: 8, teams: 1, wantBlockK: 1, wantEffective: 8},  // exact
		{p: 8, k: 10, teams: 1, wantBlockK: 1, wantEffective: 8}, // m ∤ k: floors down
		{p: 8, k: 100, teams: 1, wantBlockK: 12, wantEffective: 96},
		{p: 8, k: 3, teams: 4, wantBlockK: 1, wantEffective: 2}, // m = 2: k/m floors to 1
		{p: 8, k: 100, teams: 2, wantBlockK: 25, wantEffective: 100},
	}
	for _, c := range cases {
		s, err := New(c.p, 0, 1000, c.k, Options{Teams: c.teams})
		if err != nil {
			t.Fatalf("New(p=%d, k=%d, d=%d): %v", c.p, c.k, c.teams, err)
		}
		if s.BlockK() != c.wantBlockK {
			t.Errorf("p=%d k=%d d=%d: BlockK = %d, want %d", c.p, c.k, c.teams, s.BlockK(), c.wantBlockK)
		}
		if s.EffectiveK() != c.wantEffective {
			t.Errorf("p=%d k=%d d=%d: EffectiveK = %d, want %d", c.p, c.k, c.teams, s.EffectiveK(), c.wantEffective)
		}
	}
}

// TestSmallKSelectionBoundedByEffectiveK runs a real reduction with k < m
// and verifies the global gradient respects EffectiveK — larger than the
// requested k, which is exactly the drift the documentation warns about —
// and never the raw k.
func TestSmallKSelectionBoundedByEffectiveK(t *testing.T) {
	const p, n, k = 8, 512, 3
	unit := comm.Profile{Name: "unit", Alpha: 1, Beta: 0}
	outs := make([][]float32, p)
	var effective int
	simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
		s, err := New(p, rank, n, k, Options{})
		if err != nil {
			panic(err)
		}
		if rank == 0 {
			effective = s.EffectiveK()
		}
		grad := make([]float32, n)
		for i := range grad {
			grad[i] = float32((i*13+rank*7)%29) - 14
		}
		outs[rank] = reduce(s, ep, grad)
	})
	if effective != p { // m = P with d = 1, so the clamp lands on P
		t.Fatalf("EffectiveK = %d, want %d", effective, p)
	}
	nonzero := 0
	for _, v := range outs[0] {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero > effective {
		t.Fatalf("global gradient holds %d entries, exceeding EffectiveK %d", nonzero, effective)
	}
	if nonzero <= k {
		t.Logf("note: selection %d happens to be within requested k=%d", nonzero, k)
	}
}
