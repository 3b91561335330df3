// Package analysis registers the spardl-vet analyzer suite: the custom
// static-analysis passes that mechanically enforce this repository's
// cross-cutting source disciplines — bit-identical collectives (nodeterm),
// total-order float comparison (floatcmp), arena chunk ownership
// (arenasafe), the allocation-free steady state (hotalloc) and its
// transitive closure (hotprop), mutex discipline (locksafe) and a deadline
// on every conn and listener the rendezvous gives birth to (netdeadline).
// The interprocedural passes share one call-graph pass (callgraph) via
// Requires and exchange cross-package summaries via facts. See each
// analyzer's package documentation for its exact rules, audit_test.go for
// the seeded bug each rule is held to, and README.md ("Correctness
// tooling") for the workflow. Failure-cascade ordering has no analyzer:
// comm.Cause.Fail and the stream lane's Sever-only handle hold it by type.
package analysis

import (
	"spardl/internal/analysis/arenasafe"
	"spardl/internal/analysis/floatcmp"
	"spardl/internal/analysis/framework"
	"spardl/internal/analysis/hotalloc"
	"spardl/internal/analysis/hotprop"
	"spardl/internal/analysis/locksafe"
	"spardl/internal/analysis/netdeadline"
	"spardl/internal/analysis/nodeterm"
)

// All returns the full spardl-vet suite in reporting order. The shared
// callgraph pass is not listed — it reports nothing and is pulled in
// automatically through Requires.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		nodeterm.Analyzer,
		floatcmp.Analyzer,
		arenasafe.Analyzer,
		hotalloc.Analyzer,
		hotprop.Analyzer,
		locksafe.Analyzer,
		netdeadline.Analyzer,
	}
}
