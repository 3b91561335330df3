package core

import (
	"testing"

	"spardl/internal/simnet"
)

// wantFused replays runSRS's schedule for the worker at pos in a team of m
// and reports which blocks it selects before any received chunk lands in
// them: step i selects the blocks of bag l−i+1 and then receives the mirror
// bag, the same offsets from the worker 2^(l−i) positions behind; the
// worker's own block is selected last.
func wantFused(m, pos int) []bool {
	fused, landed := make([]bool, m), make([]bool, m)
	bags := sendBags(m)
	l := len(bags)
	for i := 1; i <= l; i++ {
		bag := bags[l-i]
		for _, r := range bag {
			b := (pos + r) % m
			fused[b] = !landed[b]
		}
		source := (pos - 1<<(l-i) + m) % m
		for _, r := range bag {
			landed[(source+r)%m] = true
		}
	}
	fused[pos] = !landed[pos]
	return fused
}

// TestGradientFusedIntoFirstSelection pins where each block gets its
// gradient: in its selection exactly when it is selected before any chunk
// lands in it, by AddInto otherwise. At P = 14 that is 8 of the 14 blocks
// on every rank (the first bag's 6 and 2 of the second), at P = 4 it is 2.
// The eager schedule selects every block up front, so every block fuses.
// A reducer that added the whole gradient up front again would fuse none.
func TestGradientFusedIntoFirstSelection(t *testing.T) {
	const n = 1 << 12
	for p := 2; p <= 16; p++ {
		for _, eager := range []bool{false, true} {
			grads := makeGradients(2, p, n, int64(p))
			got := make([][]gradState, p)
			simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
				s, err := New(p, rank, n, n/10, Options{Eager: eager})
				if err != nil {
					panic(err)
				}
				out := make([]float32, n)
				for _, g := range grads {
					s.ReduceInto(ep, g[rank], out)
				}
				got[rank] = s.gradIn
			})
			for rank, blocks := range got {
				want, fused := wantFused(p, rank), 0
				for b, st := range blocks {
					switch {
					case want[b] || eager:
						if st != gradFused {
							t.Fatalf("P=%d rank %d eager=%v: block %d got its gradient %d, want in its selection", p, rank, eager, b, st)
						}
						fused++
					case st != gradAdded:
						t.Fatalf("P=%d rank %d eager=%v: block %d got its gradient %d, want by AddInto", p, rank, eager, b, st)
					}
				}
				if want := map[int]int{4: 2, 14: 8}[p]; want > 0 && !eager && fused != want {
					t.Fatalf("P=%d rank %d: %d blocks fused, want %d", p, rank, fused, want)
				}
			}
		}
	}
}
