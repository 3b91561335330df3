package core

import "fmt"

// RestoreResidual implements sparsecoll.ResidualRestorer: an elastic
// recovery rebuilds the reducer for the shrunk cluster (new
// sparse.Partition, re-fitted teams) and reloads the residual snapshot the
// survivor carried across the re-rendezvous. The residual is per-worker
// state independent of P, so the copy is exact.
func (s *SparDL) RestoreResidual(res []float32) {
	if len(res) != len(s.residual) {
		panic(fmt.Sprintf("core: restoring a %d-value residual into a %d-value reducer", len(res), len(s.residual)))
	}
	copy(s.residual, res)
}

// FitTeams returns the options re-fitted for a p-worker cluster after an
// elastic membership change: the team count drops to the largest d ≤
// min(Teams, p) that divides p, with everything else carried over. d = 1
// is always reachable, so the result always passes Validate(p) for p ≥ 1.
func (o Options) FitTeams(p int) Options {
	o = o.withDefaults()
	d := o.Teams
	for d > 1 && p%d != 0 {
		d--
	}
	o.Teams = d
	return o
}
