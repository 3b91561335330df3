package simnet

import (
	"math"
	"testing"
)

// unit profile makes costs easy to reason about: one second per round plus
// one second per byte.
var unit = Profile{Name: "unit", Alpha: 1, Beta: 1}

func TestPingPongTiming(t *testing.T) {
	rep := Run(2, unit, func(rank int, ep *Endpoint) {
		if rank == 0 {
			ep.Send(1, "ping", 10)
			ep.Recv(1)
		} else {
			ep.Recv(0)
			ep.Send(0, "pong", 5)
		}
	})
	// Worker 1: recv at α+10β = 11. Worker 0: message sent at t=11,
	// so clock = max(0, 11) + α + 5β = 17.
	if got := rep.Clocks[1]; got != 11 {
		t.Fatalf("worker 1 clock = %g, want 11", got)
	}
	if got := rep.Clocks[0]; got != 17 {
		t.Fatalf("worker 0 clock = %g, want 17", got)
	}
	if rep.Time != 17 {
		t.Fatalf("completion time = %g, want 17", rep.Time)
	}
}

func TestCausality(t *testing.T) {
	// Sender computes for 100s before sending; receiver must not see the
	// message earlier than that.
	rep := Run(2, unit, func(rank int, ep *Endpoint) {
		if rank == 0 {
			ep.Compute(100)
			ep.Send(1, nil, 1)
		} else {
			ep.Recv(0)
		}
	})
	if got := rep.Clocks[1]; got != 102 {
		t.Fatalf("receiver clock = %g, want 102 (100 + α + β)", got)
	}
}

func TestPairedExchangeIsFullDuplex(t *testing.T) {
	// Both workers SendRecv simultaneously; each should pay exactly one
	// round: α + β·bytes, not two.
	rep := Run(2, unit, func(rank int, ep *Endpoint) {
		ep.SendRecv(1-rank, nil, 8)
	})
	for r, c := range rep.Clocks {
		if c != 9 {
			t.Fatalf("worker %d clock = %g, want 9", r, c)
		}
	}
	if rep.MaxRounds() != 1 {
		t.Fatalf("rounds = %d, want 1", rep.MaxRounds())
	}
	if rep.MaxBytesRecv() != 8 {
		t.Fatalf("bytes = %d, want 8", rep.MaxBytesRecv())
	}
}

func TestStatsAccounting(t *testing.T) {
	rep := Run(3, unit, func(rank int, ep *Endpoint) {
		// Ring: send 100 bytes to next, receive from previous.
		next, prev := (rank+1)%3, (rank+2)%3
		ep.Send(next, nil, 100)
		ep.Recv(prev)
	})
	for r, s := range rep.PerWorker {
		if s.BytesSent != 100 || s.BytesRecv != 100 || s.Rounds != 1 || s.MsgsSent != 1 {
			t.Fatalf("worker %d stats %+v", r, s)
		}
	}
}

func TestSyncClock(t *testing.T) {
	rep := Run(4, unit, func(rank int, ep *Endpoint) {
		ep.Compute(float64(rank) * 7)
		ep.SyncClock()
	})
	for r, c := range rep.Clocks {
		if c != 21 {
			t.Fatalf("worker %d clock = %g, want 21", r, c)
		}
		if rep.PerWorker[r].Rounds != 0 {
			t.Fatal("SyncClock must not charge rounds")
		}
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range []Profile{Ethernet, RDMA} {
		if p.Alpha <= 0 || p.Beta <= 0 {
			t.Fatalf("profile %s has non-positive parameters", p.Name)
		}
	}
	if RDMA.Alpha >= Ethernet.Alpha || RDMA.Beta >= Ethernet.Beta {
		t.Fatal("RDMA must be strictly faster than Ethernet")
	}
}

func TestComputeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := New(1, unit)
	f.Endpoint(0).Compute(-1)
}

func TestResetStats(t *testing.T) {
	rep := Run(2, unit, func(rank int, ep *Endpoint) {
		ep.SendRecv(1-rank, nil, 4)
		ep.ResetStats()
		ep.SendRecv(1-rank, nil, 16)
	})
	for r, s := range rep.PerWorker {
		if s.Rounds != 1 || s.BytesRecv != 16 {
			t.Fatalf("worker %d: stats not reset: %+v", r, s)
		}
	}
	// Clock keeps running across the reset: 1+4 + 1+16 = 22.
	if math.Abs(rep.Time-22) > 1e-12 {
		t.Fatalf("time = %g, want 22", rep.Time)
	}
}
