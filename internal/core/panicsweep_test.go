package core

import (
	"fmt"
	"testing"

	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
)

// TestNoReachablePanicSweep pins the fail-fast contract: for every
// P ∈ {2..9}, every divisor d of P, every SAG variant and every baseline
// method, construction either succeeds and a full Reduce completes, or the
// validated constructor returns an error — a mid-collective panic (the old
// gTopk/recursive-doubling failure mode) is never reachable from a legal
// configuration request.
func TestNoReachablePanicSweep(t *testing.T) {
	const n, k = 240, 12

	runAll := func(t *testing.T, p int, factory sparsecoll.Factory) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("mid-collective panic: %v", r)
			}
		}()
		simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
			r := factory(p, rank, n, k)
			g := make([]float32, n)
			for i := range g {
				g[i] = float32((i*5+rank)%17) - 8
			}
			r.ReduceInto(ep, g, make([]float32, n))
		})
	}

	for p := 2; p <= 9; p++ {
		// SparDL: every divisor of P × every variant must construct or error
		// at New, and constructed reducers must complete a Reduce.
		for d := 1; d <= p; d++ {
			if p%d != 0 {
				// Non-divisors are configuration errors, never panics.
				if err := (Options{Teams: d}).Validate(p); err == nil {
					t.Fatalf("P=%d d=%d: non-divisor team count accepted", p, d)
				}
				continue
			}
			for _, v := range []Variant{Auto, BSAG} {
				opts := Options{Teams: d, Variant: v}
				t.Run(fmt.Sprintf("spardl/P=%d/d=%d/%s", p, d, v), func(t *testing.T) {
					if _, err := New(p, 0, n, k, opts); err != nil {
						// Must be the validation error, consistently.
						if vErr := opts.Validate(p); vErr == nil {
							t.Fatalf("New errored (%v) but Validate accepts", err)
						}
						return
					}
					runAll(t, p, NewFactory(opts))
				})
			}
		}
		// Bogus variant/residual values must be rejected, not silently
		// rerouted into some collective.
		if err := (Options{Teams: 1, Variant: Variant(99)}).Validate(p); err == nil {
			t.Fatalf("P=%d: bogus Variant accepted", p)
		}
		if err := (Options{Residual: ResidualMode(99)}).Validate(p); err == nil {
			t.Fatalf("P=%d: bogus ResidualMode accepted", p)
		}

		// Baselines: gTopk must error (not panic) from the validated path on
		// non-pow2 P; everything else must run at every P.
		for name, f := range map[string]sparsecoll.Factory{
			"topka":   sparsecoll.NewTopkA,
			"topkdsa": sparsecoll.NewTopkDSA,
			"oktopk":  sparsecoll.NewOkTopk,
			"dense":   sparsecoll.NewDense,
		} {
			t.Run(fmt.Sprintf("%s/P=%d", name, p), func(t *testing.T) {
				runAll(t, p, f)
			})
		}
		t.Run(fmt.Sprintf("gtopk/P=%d", p), func(t *testing.T) {
			r, err := sparsecoll.NewGTopkErr(p, 0, n, k)
			if sparsecoll.GTopkValid(p) == nil {
				if err != nil || r == nil {
					t.Fatalf("pow2 P=%d: unexpected construction error: %v", p, err)
				}
				runAll(t, p, sparsecoll.NewGTopk)
			} else if err == nil {
				t.Fatalf("non-pow2 P=%d: expected a construction error", p)
			}
		})
	}
}
