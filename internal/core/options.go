// Package core implements SparDL, the paper's primary contribution: the
// Spar-Reduce-Scatter algorithm (Section III-B), the global residual
// collection algorithm (Section III-C), and the two Spar-All-Gather
// variants R-SAG and B-SAG with the compression-ratio adjustment controller
// (Section III-D). It satisfies the same Reducer contract as the baselines
// in package sparsecoll.
package core

import (
	"fmt"

	"spardl/internal/sparsecoll"
)

// ResidualMode selects which discarded gradients feed back into the next
// iteration (Section III-C / Fig. 17).
type ResidualMode int

const (
	// GRES is the paper's global residual collection: local, end-procedure
	// and in-procedure residuals are all collected (Algorithm 1).
	GRES ResidualMode = iota
	// PRES is the partial collection used by gTopk and Ok-Topk: local and
	// end-procedure residuals only; in-procedure discards are lost.
	PRES
	// LRES is the local-only collection of DGC: a value is kept as residual
	// only if this worker never selected it for transmission.
	LRES
)

// String implements fmt.Stringer.
func (m ResidualMode) String() string {
	switch m {
	case GRES:
		return "GRES"
	case PRES:
		return "PRES"
	case LRES:
		return "LRES"
	}
	return fmt.Sprintf("ResidualMode(%d)", int(m))
}

// Variant selects the Spar-All-Gather algorithm used to synchronize teams.
type Variant int

const (
	// Auto follows the paper's rule: R-SAG when the team count is a power
	// of two, B-SAG otherwise (Section III-D).
	Auto Variant = iota
	// BSAG forces Bruck-based Spar-All-Gather at every d, the power-of-two
	// ones included (Fig. 14 times B-SAG d=4 against d=3).
	BSAG
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Auto:
		return "Auto"
	case BSAG:
		return "B-SAG"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Options configures a SparDL reducer.
type Options struct {
	// Teams is the number of teams d (Section III-D). d must divide P.
	// d = 1 (the default, what the paper calls plain "SparDL") uses only
	// Spar-Reduce-Scatter plus a final Bruck all-gather.
	Teams int
	// Variant selects the team-synchronization algorithm when Teams > 1.
	Variant Variant
	// Residual selects the residual collection algorithm (default GRES).
	Residual ResidualMode
	// Eager disables the paper's "Optimization for SRS": blocks are
	// sparsified immediately after every summation instead of lazily right
	// before transmission. Used by the ablation benches.
	Eager bool
}

// withDefaults normalizes zero values.
func (o Options) withDefaults() Options {
	if o.Teams == 0 {
		o.Teams = 1
	}
	return o
}

// rsag reports whether the teams synchronize by recursive-doubling R-SAG:
// Auto's choice at a power-of-two d > 1. Every other d > 1 runs B-SAG.
func (o Options) rsag() bool {
	d := o.Teams
	return d > 1 && o.Variant == Auto && d&(d-1) == 0
}

// Validate reports configuration errors for a P-worker cluster. Every
// reachable mid-collective panic is a validation error here instead: a
// SparDL built from Options that Validate accepts never aborts a ReduceInto
// (the P∈{2..9} × d sweep in the tests pins this).
func (o Options) Validate(p int) error {
	o = o.withDefaults()
	switch o.Variant {
	case Auto, BSAG:
	default:
		return fmt.Errorf("core: unknown SAG variant %s", o.Variant)
	}
	switch o.Residual {
	case GRES, PRES, LRES:
	default:
		return fmt.Errorf("core: unknown residual mode %s", o.Residual)
	}
	d := o.Teams
	if d < 1 || d > p {
		return fmt.Errorf("core: team count d=%d outside [1, P=%d]", d, p)
	}
	if p%d != 0 {
		return fmt.Errorf("core: team count d=%d must divide P=%d", d, p)
	}
	return nil
}

// NewFactory adapts New to the sparsecoll.Factory signature so the trainer
// and experiment harness can treat SparDL and the baselines uniformly.
// Every construction builds with opts.FitTeams(p), so one factory value
// survives an elastic shrink and rebuilds valid teams for the survivors;
// on Options that Validate(p) accepts, FitTeams changes nothing. It panics
// on options no team count can fix (a configuration bug surfaced at
// startup, which the elastic trainer reports as fail-fast).
func NewFactory(opts Options) sparsecoll.Factory {
	return func(p, rank, n, k int) sparsecoll.Reducer {
		r, err := New(p, rank, n, k, opts.FitTeams(p))
		if err != nil {
			panic(err)
		}
		return r
	}
}
