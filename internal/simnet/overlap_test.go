package simnet

import (
	"math"
	"testing"

	"spardl/internal/comm"
)

// almostEq guards against accumulated float error only; the overlap
// bookkeeping itself is exact for these hand-built schedules.
func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestOverlapHidesCommUnderCompute: communication launched mid-compute that
// finishes before the compute does costs no wall-clock at all — it is fully
// credited to OverlapSaved.
func TestOverlapHidesCommUnderCompute(t *testing.T) {
	prof := comm.Profile{Name: "unit", Alpha: 1, Beta: 0}
	rep := Run(2, prof, func(rank int, ep *Endpoint) {
		ep.Compute(4)
		ep.Overlap(func(ep comm.Endpoint) {
			ep.SendRecv(1-rank, nil, 1)
		})
		ep.Compute(6)
		ep.Join()
	})
	for w, s := range rep.PerWorker {
		if !almostEq(rep.Clocks[w], 10) {
			t.Fatalf("worker %d clock %g, want 10 (comm fully hidden)", w, rep.Clocks[w])
		}
		if !almostEq(s.ExposedComm, 0) || !almostEq(s.OverlapSaved, 1) {
			t.Fatalf("worker %d exposed=%g saved=%g, want 0/1", w, s.ExposedComm, s.OverlapSaved)
		}
	}
}

// TestOverlapExposesCommBeyondCompute: when the stream outlives the compute,
// only the excess is exposed; saved + exposed together equal the stream's
// busy time, and the final clock is computeEnd + exposed.
func TestOverlapExposesCommBeyondCompute(t *testing.T) {
	prof := comm.Profile{Name: "unit", Alpha: 1, Beta: 1}
	rep := Run(2, prof, func(rank int, ep *Endpoint) {
		ep.Compute(4)
		ep.Overlap(func(ep comm.Endpoint) {
			ep.SendRecv(1-rank, nil, 10) // α + β·10 = 11 on the stream
		})
		ep.Compute(6)
		ep.Join()
	})
	for w, s := range rep.PerWorker {
		if !almostEq(rep.Clocks[w], 15) {
			t.Fatalf("worker %d clock %g, want 15", w, rep.Clocks[w])
		}
		if !almostEq(s.ExposedComm, 5) || !almostEq(s.OverlapSaved, 6) {
			t.Fatalf("worker %d exposed=%g saved=%g, want 5/6", w, s.ExposedComm, s.OverlapSaved)
		}
	}
}

// TestOverlapSavedReconcilesWithSerialRun: the same operation sequence run
// serially (no Overlap) must cost exactly OverlapSaved more clock time than
// the pipelined run — per worker, not just in aggregate.
func TestOverlapSavedReconcilesWithSerialRun(t *testing.T) {
	prof := comm.Profile{Name: "unit", Alpha: 1, Beta: 0.5}
	// Two buckets launched at different backward points, second iteration
	// included to cover stream state across Join boundaries.
	worker := func(overlap bool) func(rank int, ep *Endpoint) {
		return func(rank int, ep *Endpoint) {
			commOp := func(bytes int) func(comm.Endpoint) {
				return func(ep comm.Endpoint) {
					ep.Compute(0.25) // selection charged on the stream
					ep.SendRecv(1-rank, nil, bytes)
				}
			}
			for it := 0; it < 2; it++ {
				ep.Compute(2)
				if overlap {
					ep.Overlap(commOp(4))
				} else {
					commOp(4)(ep)
				}
				ep.Compute(3)
				if overlap {
					ep.Overlap(commOp(8))
				} else {
					commOp(8)(ep)
				}
				ep.Compute(1)
				ep.Join()
				ep.SyncClock()
			}
		}
	}
	serial := Run(2, prof, worker(false))
	piped := Run(2, prof, worker(true))
	for w := range piped.Clocks {
		saved := piped.PerWorker[w].OverlapSaved
		if saved <= 0 {
			t.Fatalf("worker %d saved nothing: %+v", w, piped.PerWorker[w])
		}
		if !almostEq(serial.Clocks[w]-piped.Clocks[w], saved) {
			t.Fatalf("worker %d: serial %g − pipelined %g != saved %g",
				w, serial.Clocks[w], piped.Clocks[w], saved)
		}
		if !almostEq(piped.PerWorker[w].CommTime, serial.PerWorker[w].CommTime) {
			t.Fatalf("worker %d: comm charges changed under overlap: %g vs %g",
				w, piped.PerWorker[w].CommTime, serial.PerWorker[w].CommTime)
		}
	}
}

// TestOverlapStreamWaitsForStragglersSender: a stream Recv still honours
// message causality — it cannot complete before the sender's (stream) clock
// at the moment of sending.
func TestOverlapStreamWaitsForStragglerSender(t *testing.T) {
	prof := comm.Profile{Name: "unit", Alpha: 1, Beta: 0}
	rep := Run(2, prof, func(rank int, ep *Endpoint) {
		// Worker 1 is a straggler: its bucket launches 4 seconds later.
		if rank == 1 {
			ep.Compute(8)
		} else {
			ep.Compute(4)
		}
		ep.Overlap(func(ep comm.Endpoint) {
			ep.SendRecv(1-rank, nil, 1)
		})
		ep.Compute(2)
		ep.Join()
	})
	// Worker 0's stream must wait until worker 1 sent at t=8, then pay α:
	// stream ends at 9, compute at 6 → 3 exposed.
	if !almostEq(rep.Clocks[0], 9) {
		t.Fatalf("worker 0 clock %g, want 9", rep.Clocks[0])
	}
	if !almostEq(rep.PerWorker[0].ExposedComm, 3) {
		t.Fatalf("worker 0 exposed %g, want 3", rep.PerWorker[0].ExposedComm)
	}
	// The straggler's own stream never waits: comm fully hidden under its
	// trailing compute.
	if !almostEq(rep.Clocks[1], 10) || !almostEq(rep.PerWorker[1].ExposedComm, 0) {
		t.Fatalf("worker 1 clock %g exposed %g, want 10/0",
			rep.Clocks[1], rep.PerWorker[1].ExposedComm)
	}
}
