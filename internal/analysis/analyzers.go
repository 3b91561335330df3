// Package analysis registers the spardl-vet analyzer suite: the custom
// static-analysis passes for the two source disciplines whose bugs a test
// run cannot show in CI time — mutex discipline (locksafe: a blocking call
// under a lock hangs the tests) and a deadline on every conn and listener
// the rendezvous gives birth to (netdeadline: no test plays the silent peer
// that a missing deadline waits on forever). Every analyzer looks at one
// package at a time. See each analyzer's package documentation for its
// exact rules, audit_test.go for the seeded bug each rule is held to, and
// README.md ("Correctness tooling") for the workflow.
//
// The other disciplines are held by tests and types: determinism and
// NaN-safe selection by the bit-identity, equivalence and NaN/Inf selection
// tests; arena chunk ownership by sparse.Arena itself (a recycled chunk
// reads as empty, a second Recycle panics) and the same tests;
// failure-cascade ordering by type (comm.Cause.Fail and the stream lane's
// Sever-only handle); and the allocation-free steady state is measured,
// not predicted — TestWarmSyncAllocs in the root package counts every
// reducer's allocations per warm synchronization.
package analysis

import (
	"spardl/internal/analysis/framework"
	"spardl/internal/analysis/locksafe"
	"spardl/internal/analysis/netdeadline"
)

// All returns the full spardl-vet suite in reporting order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		locksafe.Analyzer,
		netdeadline.Analyzer,
	}
}
