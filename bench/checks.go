package main

import "math"

// The correctness checks. Each is a pure function of what a run observed,
// so the tests can show every one of them firing on a corrupted value.
// Names are what result.Failures reports.
const (
	checkRanks   = "ranks-bit-identical"    // every rank delivered the same bits
	checkMass    = "mass-conserved"         // Σ(grad+residual) = Σ delivered + Σ residual'
	checkReplica = "simnet-replica-matches" // the α-β simulator delivers the same bits
	checkLoss    = "loss-replica-matches"   // simnet training walks the same loss curve
	checkTarget  = "target-loss-reached"    // the run crossed target_loss
)

// massTol bounds the conservation error relative to the L2 norm of what
// was injected. float32 rounding measures 10⁻⁹ to 10⁻⁷ of that norm on the
// five workloads; one corrupted entry of typical magnitude among 10⁷ is
// already ≈ 3·10⁻⁴.
const massTol = 1e-6

// ranksIdentical reports whether all ranks hold bit-identical outputs.
func ranksIdentical(hashes []uint64) bool {
	for _, h := range hashes {
		if h != hashes[0] {
			return false
		}
	}
	return true
}

// massConserved checks the paper's global-residual invariant over one
// synchronization: what the workers injected equals what was delivered
// plus what they carry forward. It returns the error relative to the
// injected L2 norm.
func massConserved(injected, injectedSq, leftover []float64, delivered float64) (bool, float64) {
	var in, sq, left float64
	for i := range injected {
		in += injected[i]
		sq += injectedSq[i]
		left += leftover[i]
	}
	if sq == 0 {
		return in == delivered+left, 0
	}
	rel := math.Abs(in-delivered-left) / math.Sqrt(sq)
	return rel <= massTol, rel
}

// replicaMatches reports whether the live fabric and the simnet replica
// agree bit for bit after the same synchronizations.
func replicaMatches(live []uint64, rep syncReplica) bool {
	return rep.agree && ranksIdentical(live) && live[0] == rep.hash
}

// lossesMatch compares two held-out loss prefixes bit for bit.
func lossesMatch(live, sim []float64) bool {
	if len(live) < len(sim) || len(sim) == 0 {
		return false
	}
	for i, l := range sim {
		if math.Float64bits(l) != math.Float64bits(live[i]) {
			return false
		}
	}
	return true
}
