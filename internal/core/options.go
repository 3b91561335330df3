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
	"spardl/internal/wire"
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
	// RSAG forces recursive-doubling Spar-All-Gather (requires d = 2^i).
	RSAG
	// BSAG forces Bruck-based Spar-All-Gather (any d).
	BSAG
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Auto:
		return "Auto"
	case RSAG:
		return "R-SAG"
	case BSAG:
		return "B-SAG"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// WireMode selects what the simulator charges for every sparse message a
// reducer sends. The byte-level backends have one real format and ignore
// it (see wire.Mode).
type WireMode = wire.Mode

const (
	// WireCOO charges the paper's COO accounting: 8 bytes per entry, no
	// header. The default; reproduces Table I bit-for-bit.
	WireCOO = wire.ModeCOO
	// WireNegotiated charges the smallest self-describing encoding
	// (COO / delta-varint / bitmap / dense) per message — the bytes the
	// real backends actually move.
	WireNegotiated = wire.ModeNegotiated
)

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
	// Wire selects the simulator's byte accounting of sparse messages
	// (default WireCOO, the paper's 8 bytes per entry).
	Wire WireMode
}

// withDefaults normalizes zero values.
func (o Options) withDefaults() Options {
	if o.Teams == 0 {
		o.Teams = 1
	}
	return o
}

// variantFor resolves the effective SAG variant for d teams.
func (o Options) variantFor(d int) Variant {
	if o.Variant != Auto {
		return o.Variant
	}
	if d&(d-1) == 0 {
		return RSAG
	}
	return BSAG
}

// Validate reports configuration errors for a P-worker cluster. Every
// reachable mid-collective panic is a validation error here instead: a
// SparDL built from Options that Validate accepts never aborts a Reduce
// (the P∈{2..9} × d sweep in the tests pins this).
func (o Options) Validate(p int) error {
	o = o.withDefaults()
	switch o.Variant {
	case Auto, RSAG, BSAG:
	default:
		return fmt.Errorf("core: unknown SAG variant %s", o.Variant)
	}
	switch o.Residual {
	case GRES, PRES, LRES:
	default:
		return fmt.Errorf("core: unknown residual mode %s", o.Residual)
	}
	switch o.Wire {
	case WireCOO, WireNegotiated:
	default:
		return fmt.Errorf("core: unknown wire mode %s", o.Wire)
	}
	d := o.Teams
	if d < 1 || d > p {
		return fmt.Errorf("core: team count d=%d outside [1, P=%d]", d, p)
	}
	if p%d != 0 {
		return fmt.Errorf("core: team count d=%d must divide P=%d", d, p)
	}
	if d > 1 && o.variantFor(d) == RSAG && d&(d-1) != 0 {
		// The recursive-doubling exchange indexes the position group by
		// team XOR 2^t, which walks out of range for non-pow2 d — exactly
		// the class of reduce-time panic this validation front-loads.
		return fmt.Errorf("core: R-SAG requires a power-of-two team count, got d=%d", d)
	}
	return nil
}

// NewFactory adapts New to the sparsecoll.Factory signature so the trainer
// and experiment harness can treat SparDL and the baselines uniformly. It
// panics on invalid options (a configuration bug surfaced at startup).
func NewFactory(opts Options) sparsecoll.Factory {
	return func(p, rank, n, k int) sparsecoll.Reducer {
		r, err := New(p, rank, n, k, opts)
		if err != nil {
			panic(err)
		}
		return r
	}
}
