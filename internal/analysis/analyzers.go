// Package analysis registers the spardl-vet analyzer suite: the custom
// static-analysis passes that mechanically enforce this repository's
// cross-cutting source disciplines — bit-identical collectives (nodeterm),
// total-order float comparison (floatcmp), arena chunk ownership
// (arenasafe), mutex discipline (locksafe) and a deadline on every conn and
// listener the rendezvous gives birth to (netdeadline). Every analyzer
// looks at one package at a time. See each analyzer's package
// documentation for its exact rules, audit_test.go for the seeded bug each
// rule is held to, and README.md ("Correctness tooling") for the workflow.
// Two disciplines have no analyzer: failure-cascade ordering is held by
// type (comm.Cause.Fail and the stream lane's Sever-only handle), and the
// allocation-free steady state is measured, not predicted —
// TestWarmSyncAllocs in the root package counts every reducer's
// allocations per warm synchronization.
package analysis

import (
	"spardl/internal/analysis/arenasafe"
	"spardl/internal/analysis/floatcmp"
	"spardl/internal/analysis/framework"
	"spardl/internal/analysis/locksafe"
	"spardl/internal/analysis/netdeadline"
	"spardl/internal/analysis/nodeterm"
)

// All returns the full spardl-vet suite in reporting order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		nodeterm.Analyzer,
		floatcmp.Analyzer,
		arenasafe.Analyzer,
		locksafe.Analyzer,
		netdeadline.Analyzer,
	}
}
