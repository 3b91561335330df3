package livenet_test

import (
	"testing"

	"spardl/internal/comm"
	"spardl/internal/livenet"
	"spardl/internal/sparse"
)

// TestByteLevelTransport verifies no payload crosses a queue by reference:
// mutating the sent chunk after Send must not affect what the receiver
// decoded, and the receiver's chunk must carry the sender's exact bits.
func TestByteLevelTransport(t *testing.T) {
	sent := &sparse.Chunk{Idx: []int32{3, 7, 1000}, Val: []float32{-1.5, 0.25, 3e-9}}
	var got *sparse.Chunk
	livenet.NewBackend().Run(2, func(rank int, ep comm.Endpoint) {
		if rank == 0 {
			c := sent.Clone()
			ep.Send(1, c, c.WireBytes())
			c.Val[0] = 999 // mutation after Send must be invisible remotely
		} else {
			in, bytes := ep.Recv(0)
			if bytes != sent.WireBytes() {
				t.Errorf("accounted bytes %d, want %d", bytes, sent.WireBytes())
			}
			got = in.(*sparse.Chunk)
		}
	})
	if got == nil || got.Len() != sent.Len() {
		t.Fatalf("receiver got %v", got)
	}
	for i := range sent.Idx {
		if got.Idx[i] != sent.Idx[i] || got.Val[i] != sent.Val[i] {
			t.Fatalf("entry %d: got (%d,%g), want (%d,%g)",
				i, got.Idx[i], got.Val[i], sent.Idx[i], sent.Val[i])
		}
	}
}

// TestStatsCountRealBytes: livenet's BytesRecv is the serialized size on
// the channel (header + encoded body), not the α-β accounted size.
func TestStatsCountRealBytes(t *testing.T) {
	livenet.NewBackend().Run(2, func(rank int, ep comm.Endpoint) {
		if rank == 0 {
			ep.Send(1, []float32{1, 2, 3}, 12)
			return
		}
		ep.Recv(0)
		s := ep.Stats()
		if s.Rounds != 1 {
			t.Errorf("rounds = %d, want 1", s.Rounds)
		}
		// tag + uvarint count + 3×4 value bytes = 14.
		if s.BytesRecv != 14 {
			t.Errorf("real BytesRecv = %d, want 14", s.BytesRecv)
		}
		if s.CommTime <= 0 {
			t.Errorf("CommTime = %g, want > 0 (wall-measured)", s.CommTime)
		}
	})
}

// TestOverlapRunsConcurrently: the communication stream is a real
// goroutine, so a stream Recv can complete while the main lane is still
// running — main-lane work done between Overlap and Join must not deadlock
// against the stream's blocking exchange, and Join books the split.
func TestOverlapRunsConcurrently(t *testing.T) {
	const p = 4
	rep := livenet.NewBackend().Run(p, func(rank int, ep comm.Endpoint) {
		got := make([]any, 0, 2)
		// Two recursive-doubling style pairwise exchanges: both sides of
		// each pair issue the exchange in the same overlap body, so the
		// stream schedule is deadlock-free on any backend.
		ep.Overlap(func(sep comm.Endpoint) {
			in, _ := sep.SendRecv(rank^1, rank, 8)
			got = append(got, in)
		})
		ep.Overlap(func(sep comm.Endpoint) {
			in, _ := sep.SendRecv(rank^2, rank*10, 8)
			got = append(got, in)
		})
		busyWork()
		ep.Join()
		if len(got) != 2 {
			t.Errorf("rank %d: %d overlap bodies ran, want 2", rank, len(got))
			return
		}
		if got[0].(int) != rank^1 {
			t.Errorf("rank %d: first exchange got %v", rank, got[0])
		}
		if got[1].(int) != (rank^2)*10 {
			t.Errorf("rank %d: second exchange got %v", rank, got[1])
		}
		ep.SyncClock()
	})
	for w, s := range rep.PerWorker {
		if s.ExposedComm < 0 || s.OverlapSaved < 0 {
			t.Errorf("worker %d: negative overlap accounting %+v", w, s)
		}
	}
}

// busyWork burns a little real CPU so overlap bodies genuinely run beside
// main-lane computation under the race detector.
func busyWork() {
	x := 1.0
	for i := 0; i < 200_000; i++ {
		x += 1 / x
	}
	if x < 0 {
		panic("unreachable")
	}
}
