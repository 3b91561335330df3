package comm_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
	"spardl/internal/livenet"
	"spardl/internal/simnet"
	"spardl/internal/tcpnet"
)

// The backend contract: what comm.Endpoint and comm.Backend promise, run as
// one table against every fabric. A behaviour listed here is checked here
// only — the per-backend test files keep what is specific to one transport
// (α-β arithmetic, byte-level serialization, rendezvous and mesh failures).

var contractBackends = []struct {
	name string
	new  func() comm.Backend
	// wall says time is measured, so timing assertions get a tolerance and
	// main-lane "work" has to really take time.
	wall bool
	// chaos builds the fabric under a fault schedule; nil where payloads
	// never become bytes that could be corrupted.
	chaos func(*chaos.Schedule) comm.Backend
}{
	{"simnet", func() comm.Backend { return simnet.Backend(comm.Profile{Name: "unit", Alpha: 1e-3, Beta: 1e-6}) }, false, nil},
	{"livenet", livenet.NewBackend, true, livenet.NewChaosBackend},
	{"tcpnet-local", func() comm.Backend { return tcpnet.LocalBackend(10 * time.Second) }, true,
		func(s *chaos.Schedule) comm.Backend { return tcpnet.LocalChaosBackend(10*time.Second, s) }},
}

// runBounded runs worker on a fresh fabric under a deadline — the failure
// contract is "unwind with a cause", never hang — and returns the report or
// the value Run panicked with. A Run still blocked at the deadline is a
// deadlock whose wedged goroutines leave the package's other tests nothing
// to stand on, so it ends the test binary: a panic naming the test, with
// every goroutine's stack.
func runBounded(t *testing.T, b comm.Backend, p int, worker func(rank int, ep comm.Endpoint)) (rep *comm.Report, panicked any) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		rep = b.Run(p, worker)
	}()
	select {
	case <-done:
		return rep, panicked
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("%s: %s: Run hung past its deadline; goroutines:\n%s", t.Name(), b.Name(), buf[:runtime.Stack(buf, true)]))
	}
}

// mustRun is runBounded for workloads that must complete.
func mustRun(t *testing.T, b comm.Backend, p int, worker func(rank int, ep comm.Endpoint)) *comm.Report {
	t.Helper()
	rep, panicked := runBounded(t, b, p, worker)
	if panicked != nil {
		t.Fatalf("%s: Run panicked: %v", b.Name(), panicked)
	}
	return rep
}

// witness re-panics whatever the worker body dies with after recording it,
// so a test can see one worker's own failure as well as what Run reports.
func witness(into *any, body func()) {
	defer func() {
		if r := recover(); r != nil {
			*into = r
			panic(r)
		}
	}()
	body()
}

func TestBackendContract(t *testing.T) {
	for _, bk := range contractBackends {
		bk := bk
		t.Run(bk.name, func(t *testing.T) {
			t.Run("per-pair FIFO and payload shapes", func(t *testing.T) { contractFIFO(t, bk.new()) })
			t.Run("worker panic: first cause wins, peers unwind", func(t *testing.T) { contractWorkerPanic(t, bk.new()) })
			t.Run("stream-body panic: first cause wins, peers unwind", func(t *testing.T) { contractStreamPanic(t, bk.new()) })
			t.Run("stream control cannot nest", func(t *testing.T) { contractNesting(t, bk.new()) })
			t.Run("barrier tokens are invisible in Stats", func(t *testing.T) { contractBarrier(t, bk.new(), bk.wall) })
			t.Run("exposed + saved = stream busy at every Join", func(t *testing.T) { contractOverlap(t, bk.new(), bk.wall) })
			t.Run("Report aggregates per-worker stats and clocks", func(t *testing.T) { contractReport(t, bk.new()) })
			t.Run("dense vectors: copied at Send, read in place at Recv", func(t *testing.T) { contractVec(t, bk.new()) })
			if bk.chaos != nil {
				t.Run("a corrupted dense frame ends in a named cause", func(t *testing.T) { contractVecCorrupt(t, bk.chaos) })
				t.Run("corruption never reaches the sender's vector", func(t *testing.T) { contractVecCorruptSender(t, bk.chaos) })
			}
		})
	}
}

// contractFIFO: delivery is FIFO per ordered pair — interleaved bursts to
// two different receivers each arrive in send order — every Recv is one
// round, every Send one message, and nested payload shapes survive
// the trip.
func contractFIFO(t *testing.T, b comm.Backend) {
	const p, burst = 3, 32
	mustRun(t, b, p, func(rank int, ep comm.Endpoint) {
		next, prev := (rank+1)%p, (rank+p-1)%p
		for i := 0; i < burst; i++ {
			ep.Send(next, []float32{float32(rank), float32(i)}, 8)
			ep.Send(prev, i, 8)
		}
		for i := 0; i < burst; i++ {
			got, acc := ep.Recv(prev)
			if v := got.([]float32); int(v[0]) != prev || int(v[1]) != i || acc != 8 {
				t.Errorf("rank %d: from %d at step %d: got %v (accounted %d)", rank, prev, i, v, acc)
			}
		}
		for i := 0; i < burst; i++ {
			if got, _ := ep.Recv(next); got.(int) != i {
				t.Errorf("rank %d: from %d at step %d: got %v", rank, next, i, got)
			}
		}
		ep.Send(next, []any{2.5, []float32{1, 2}}, 4)
		got, _ := ep.Recv(prev)
		if l := got.([]any); l[0].(float64) != 2.5 || len(l[1].([]float32)) != 2 {
			t.Errorf("rank %d: nested payload mangled: %v", rank, l)
		}
		if st := ep.Stats(); st.Rounds != 2*burst+1 || st.MsgsSent != 2*burst+1 || st.BytesRecv == 0 || st.BytesSent == 0 {
			t.Errorf("rank %d: stats after %d receives and sends: %+v", rank, 2*burst+1, st)
		}
	})
}

// checkRootCause asserts Run re-panicked with the failure that started the
// cascade, named by its worker, and not with one of the poisoned-fabric
// panics it provoked in the peers.
func checkRootCause(t *testing.T, panicked any, want string) {
	t.Helper()
	msg := fmt.Sprint(panicked)
	if panicked == nil || !strings.Contains(msg, want) || !strings.Contains(msg, "worker 0") {
		t.Fatalf("Run did not re-panic with the root cause %q: %v", want, panicked)
	}
	if strings.Contains(msg, "poisoned fabric") {
		t.Fatalf("a cascade panic overwrote the root cause: %v", panicked)
	}
}

// checkUnwound asserts a peer's operation on the dead fabric panicked with
// a poisoned-fabric error naming the worker that died.
func checkUnwound(t *testing.T, who string, r any) {
	t.Helper()
	msg := fmt.Sprint(r)
	if r == nil || !strings.Contains(msg, "poisoned fabric") || !strings.Contains(msg, "worker 0") {
		t.Fatalf("%s did not unwind with the recorded cause: %v", who, r)
	}
}

// contractWorkerPanic: worker 0 dies; a peer blocked in Recv(0) and a peer
// that calls Recv(0) only afterwards both panic with the cause instead of
// hanging, and Run reports worker 0's panic.
func contractWorkerPanic(t *testing.T, b comm.Backend) {
	var blocked, late any
	unwound := make(chan struct{})
	_, panicked := runBounded(t, b, 4, func(rank int, ep comm.Endpoint) {
		switch rank {
		case 0:
			panic("boom")
		case 1:
			defer close(unwound)
			witness(&blocked, func() { ep.Recv(0) }) // never fed
		case 2:
			<-unwound
			witness(&late, func() { ep.Recv(0) })
		case 3:
			ep.Recv(0)
		}
	})
	checkRootCause(t, panicked, "boom")
	checkUnwound(t, "the blocked Recv", blocked)
	checkUnwound(t, "a Recv after the peer died", late)
}

// contractStreamPanic: the same for a panic inside an Overlap body — it
// must poison the fabric from the stream (so the peers unwind), resurface
// at the worker's Join, and be what Run reports.
func contractStreamPanic(t *testing.T, b comm.Backend) {
	const p = 3
	died := make([]any, p)
	_, panicked := runBounded(t, b, p, func(rank int, ep comm.Endpoint) {
		witness(&died[rank], func() {
			if rank == 0 {
				ep.Overlap(func(comm.Endpoint) { panic("boom in stream") })
				ep.Join() // must re-panic, not hang
			}
			ep.Recv(0)
		})
	})
	checkRootCause(t, panicked, "boom in stream")
	if !strings.Contains(fmt.Sprint(died[0]), "boom in stream") {
		t.Fatalf("the stream panic did not resurface on its worker: %v", died[0])
	}
	for rank := 1; rank < p; rank++ {
		checkUnwound(t, fmt.Sprintf("worker %d's blocked Recv", rank), died[rank])
	}
}

// contractNesting: Overlap inside Overlap and Join inside Overlap are
// contract violations on every backend; Join with nothing pending is a
// no-op, so serial schedules share the pipelined code path.
func contractNesting(t *testing.T, b comm.Backend) {
	_, panicked := runBounded(t, b, 1, func(rank int, ep comm.Endpoint) {
		ep.Overlap(func(sep comm.Endpoint) { sep.Overlap(func(comm.Endpoint) {}) })
		ep.Join()
	})
	if !strings.Contains(fmt.Sprint(panicked), "cannot nest") {
		t.Fatalf("nested Overlap: %v", panicked)
	}
	_, panicked = runBounded(t, b, 1, func(rank int, ep comm.Endpoint) {
		ep.Overlap(func(sep comm.Endpoint) { sep.Join() })
		ep.Join()
	})
	if !strings.Contains(fmt.Sprint(panicked), "Join inside Overlap") {
		t.Fatalf("Join inside Overlap: %v", panicked)
	}
	mustRun(t, b, 1, func(rank int, ep comm.Endpoint) {
		ep.Compute(1)
		ep.Join()
		if s := ep.Stats(); s.ExposedComm != 0 || s.OverlapSaved != 0 {
			t.Errorf("no-op Join changed stats: %+v", s)
		}
	})
}

// barrierSizes are the worker counts the barrier rows run: P = 1, the
// pair, and rank 0 with two, four and seven peers.
var barrierSizes = []int{1, 2, 3, 5, 8}

// contractBarrier: SyncClock synchronizes without charging anything, and no
// rank returns from it before the last one has entered. At barrier i, rank
// i mod P sleeps before it enters — rank 0 and every other rank in turn.
// On the link runtime (link) it also holds the barrier's token count and
// the epoch stamp that fences the links carrying no tokens.
func contractBarrier(t *testing.T, b comm.Backend, link bool) {
	if link {
		t.Run("2(P-1) token frames through rank 0", func(t *testing.T) { contractBarrierTokens(t, b) })
		t.Run("a leftover frame is a schedule mismatch at the next Recv", func(t *testing.T) { contractEpochStamp(t, b) })
	}
	const late = 5 * time.Millisecond
	for _, p := range barrierSizes {
		entered := make([]atomic.Int32, p)
		rep := mustRun(t, b, p, func(rank int, ep comm.Endpoint) {
			for i := range entered {
				if rank == i%p {
					time.Sleep(late)
				}
				entered[i].Add(1)
				ep.SyncClock()
				if n := entered[i].Load(); n != int32(p) {
					t.Errorf("P=%d barrier %d: rank %d passed with %d of %d ranks entered", p, i, rank, n, p)
				}
			}
		})
		for w, s := range rep.PerWorker {
			if s.Rounds != 0 || s.BytesRecv != 0 || s.BytesSent != 0 || s.MsgsSent != 0 || s.CommTime != 0 {
				t.Errorf("P=%d worker %d: SyncClock charged stats %+v", p, w, s)
			}
		}
	}
}

// contractBarrierTokens: on the link runtime a barrier is a fan-in to rank
// 0 and a fan-out from it, 2(P−1) token frames, not one per ordered pair.
func contractBarrierTokens(t *testing.T, b comm.Backend) {
	const barriers = 3
	for _, p := range barrierSizes {
		var tokens atomic.Int64
		mustRun(t, b, p, func(rank int, ep comm.Endpoint) {
			comm.CountTokens(ep, &tokens)
			for i := 0; i < barriers; i++ {
				ep.SyncClock()
			}
		})
		if got, want := tokens.Load(), int64(barriers*2*(p-1)); got != want {
			t.Errorf("P=%d: %d barriers delivered %d tokens, want %d", p, barriers, got, want)
		}
	}
}

// contractEpochStamp: link 1→2 carries no barrier token, so the epoch stamp
// is what fences it. Rank 1 sends rank 2 one frame too many before the
// first barrier; rank 2's next Recv from it, after that barrier, must panic
// with a schedule mismatch naming both barrier counts, not hand over the
// stale frame.
func contractEpochStamp(t *testing.T, b comm.Backend) {
	var own any
	var got any
	_, panicked := runBounded(t, b, 3, func(rank int, ep comm.Endpoint) {
		if rank == 1 {
			ep.Send(2, 1, 8)
			ep.Send(2, 2, 8) // the extra frame
		}
		if rank == 2 {
			ep.Recv(1)
		}
		ep.SyncClock()
		switch rank {
		case 1:
			ep.Send(2, 3, 8)
		case 2:
			witness(&own, func() { got, _ = ep.Recv(1) })
		}
	})
	msg := fmt.Sprint(own)
	if own == nil || !strings.Contains(msg, "schedule mismatch") || !strings.Contains(msg, "barrier 0") || !strings.Contains(msg, "barrier 1") {
		t.Fatalf("rank 2's Recv after the barrier returned %v, died with %v; want a schedule mismatch naming barriers 0 and 1", got, own)
	}
	if !strings.Contains(fmt.Sprint(panicked), "schedule mismatch") {
		t.Fatalf("Run ended with %v, want the schedule mismatch", panicked)
	}
}

// contractOverlap: at every Join, the stream's busy time since the last
// one splits into what delayed the worker (exposed) and what ran hidden
// under main-lane work (saved). Round one gives the main lane three times
// the stream's work, so the stream hides entirely; round two joins at
// once, so it is exposed entirely. The body exchanges a message with the
// neighbours, so the stream really communicates.
func contractOverlap(t *testing.T, b comm.Backend, wall bool) {
	const p = 2
	const d = 0.030 // seconds of work per stream body
	work := func(ep comm.Endpoint, seconds float64) {
		ep.Compute(seconds) // simnet's clock
		if wall {
			time.Sleep(time.Duration(seconds * float64(time.Second)))
		}
	}
	near := func(got, want, busy float64) bool {
		tol := 1e-9
		if wall {
			tol = busy/4 + 0.002
		}
		return got >= want-tol && got <= want+tol
	}
	mustRun(t, b, p, func(rank int, ep comm.Endpoint) {
		for round, mainWork := range []float64{3 * d, 0} {
			var busy float64
			var got any
			before := ep.Stats()
			ep.Overlap(func(sep comm.Endpoint) {
				c0 := sep.Clock()
				got, _ = sep.SendRecv(1-rank, rank, 8)
				work(sep, d)
				busy = sep.Clock() - c0
			})
			work(ep, mainWork)
			ep.Join()
			after := ep.Stats()
			exposed, saved := after.ExposedComm-before.ExposedComm, after.OverlapSaved-before.OverlapSaved
			if got.(int) != 1-rank {
				t.Errorf("rank %d round %d: stream exchange got %v", rank, round, got)
			}
			if exposed < 0 || saved < 0 || !near(exposed+saved, busy, busy) {
				t.Errorf("rank %d round %d: exposed %.4f + saved %.4f != stream busy %.4f", rank, round, exposed, saved, busy)
			}
			hidden, shown := saved, exposed
			if mainWork == 0 {
				hidden, shown = exposed, saved
			}
			if !near(hidden, busy, busy) || !near(shown, 0, busy) {
				t.Errorf("rank %d round %d (main-lane work %.3fs): exposed %.4f, saved %.4f of stream busy %.4f",
					rank, round, mainWork, exposed, saved, busy)
			}
			ep.SyncClock()
		}
	})
}

// contractReport: the report carries each worker's final statistics and
// clock, and Time is when the slowest worker finished.
func contractReport(t *testing.T, b comm.Backend) {
	const p = 4
	var mu sync.Mutex
	finalStats := make([]comm.Stats, p)
	finalClock := make([]float64, p)
	rep := mustRun(t, b, p, func(rank int, ep comm.Endpoint) {
		ep.Send((rank+1)%p, make([]float32, 10*(rank+1)), 40*(rank+1))
		ep.Recv((rank + p - 1) % p)
		ep.Compute(float64(rank + 1))
		mu.Lock()
		finalStats[rank], finalClock[rank] = ep.Stats(), ep.Clock()
		mu.Unlock()
	})
	if len(rep.PerWorker) != p || len(rep.Clocks) != p {
		t.Fatalf("report sized %d/%d for %d workers", len(rep.PerWorker), len(rep.Clocks), p)
	}
	slowest := 0.0
	for w := 0; w < p; w++ {
		if rep.PerWorker[w] != finalStats[w] {
			t.Errorf("worker %d: report stats %+v, worker saw %+v", w, rep.PerWorker[w], finalStats[w])
		}
		if rep.Clocks[w] < finalClock[w] || rep.Clocks[w] <= 0 {
			t.Errorf("worker %d: report clock %g, worker's last reading %g", w, rep.Clocks[w], finalClock[w])
		}
		slowest = max(slowest, rep.Clocks[w])
	}
	if rep.Time != slowest {
		t.Errorf("Time = %g, want the slowest worker's clock %g", rep.Time, slowest)
	}
	if rep.MaxRounds() != 1 || rep.MaxBytesRecv() != finalStats[0].BytesRecv || rep.TotalBytesRecv() <= rep.MaxBytesRecv() {
		t.Errorf("aggregates: rounds %d, max bytes %d, total bytes %d", rep.MaxRounds(), rep.MaxBytesRecv(), rep.TotalBytesRecv())
	}
}

// contractVec: a comm.Vec has value semantics at Send — the sender
// overwrites its slice at once and the receiver still reads the original
// values, held back until the overwrite has provably happened — and the
// view Recv returns reads correctly from the main lane, from the Overlap
// stream, and after a SyncClock has rotated the link's receive storage.
func contractVec(t *testing.T, b comm.Backend) {
	const p, n = 2, 1003 // n exercises the unrolled loop and its tail
	orig := func(rank, round, i int) float32 { return float32(1000*rank+100*round) + float32(i)/8 }
	mustRun(t, b, p, func(rank int, ep comm.Endpoint) {
		peer := 1 - rank
		exchange := func(ep comm.Endpoint, round int) comm.Vec {
			data := make([]float32, n)
			for i := range data {
				data[i] = orig(rank, round, i)
			}
			ep.Send(peer, comm.Vec{F: data}, 4*n)
			for i := range data {
				data[i] = -1 // the wire, or the fabric's copy, must already hold orig
			}
			ep.Send(peer, round, 8)
			in, acc := ep.Recv(peer)
			if got, _ := ep.Recv(peer); got.(int) != round || acc != 4*n {
				t.Errorf("rank %d round %d: marker %v, accounted %d", rank, round, got, acc)
			}
			return in.(comm.Vec)
		}
		check := func(round int, what string, dst []float32, base float32) {
			for i, v := range dst {
				if want := base + orig(peer, round, i); v != want {
					t.Errorf("rank %d round %d (%s): element %d = %g, want %g", rank, round, what, i, v, want)
					return
				}
			}
		}
		dst := make([]float32, n)
		for i := range dst {
			dst[i] = 0.5
		}
		exchange(ep, 0).AddTo(dst)
		check(0, "AddTo on the main lane", dst, 0.5)

		ep.Overlap(func(sep comm.Endpoint) { exchange(sep, 1).CopyTo(dst) })
		ep.Join()
		check(1, "CopyTo on the stream", dst, 0)

		held := exchange(ep, 2)
		ep.SyncClock()
		exchange(ep, 3).CopyTo(dst) // new frames land while the old view is still held
		held.AddTo(dst)
		for i := range dst {
			dst[i] -= orig(peer, 3, i)
		}
		check(2, "AddTo after a SyncClock", dst, 0)
	})
}

// contractVecCorrupt: chaos corrupts the first frame 0 → 1, a dense vector.
// The flipped tag must fail worker 1's decode — not hang, and not deliver
// flipped values — and poison the fabric with the schedule entry as the
// cause.
func contractVecCorrupt(t *testing.T, newChaos func(*chaos.Schedule) comm.Backend) {
	sched, err := chaos.Parse("corrupt:rank=0,peer=1,frame=0")
	if err != nil {
		t.Fatal(err)
	}
	var own any
	_, panicked := runBounded(t, newChaos(sched), 2, func(rank int, ep comm.Endpoint) {
		var in any
		if rank == 1 {
			witness(&own, func() { in, _ = ep.SendRecv(0, comm.Vec{F: make([]float32, 64)}, 256) })
		} else {
			in, _ = ep.SendRecv(1, comm.Vec{F: make([]float32, 64)}, 256)
		}
		in.(comm.Vec).AddTo(make([]float32, 64))
		ep.SyncClock()
	})
	checkCorruptCause(t, own, panicked, sched.Faults[0])
}

// checkCorruptCause: worker 1's own failure is the decode of the flipped
// frame, and Run reports the schedule entry behind it.
func checkCorruptCause(t *testing.T, own, panicked any, f chaos.Fault) {
	t.Helper()
	if !strings.Contains(fmt.Sprint(own), "decode from worker 0 failed") {
		t.Fatalf("corrupted dense frame: worker 1 died with %v", own)
	}
	if fmt.Sprint(panicked) != f.Corrupted() {
		t.Fatalf("corrupted dense frame: Run ended with %v, want %q", panicked, f.Corrupted())
	}
}

// contractVecCorruptSender: on the byte fabrics a Vec's elements may go
// straight from the sender's memory to the transport, so a corrupt verdict
// must flip the bytes in flight and never the vector they came from. Frame
// 0 → 1 is 1024 elements, so the second flipped byte (payload offset
// payLen/2) lands inside element 511, not in the header. Worker 1's decode
// must fail, with the scheduled corruption as the cause, and worker 0's
// vector must be bit-identical after Send returns.
func contractVecCorruptSender(t *testing.T, newChaos func(*chaos.Schedule) comm.Backend) {
	const n = 1024
	sched, err := chaos.Parse("corrupt:rank=0,peer=1,frame=0")
	if err != nil {
		t.Fatal(err)
	}
	var flipped []int
	var own any
	_, panicked := runBounded(t, newChaos(sched), 2, func(rank int, ep comm.Endpoint) {
		if rank == 1 {
			var in any
			witness(&own, func() { in, _ = ep.Recv(0) })
			in.(comm.Vec).AddTo(make([]float32, n))
			return
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(i) + 0.25
		}
		ep.Send(1, comm.Vec{F: data}, 4*n)
		for i, v := range data {
			if math.Float32bits(v) != math.Float32bits(float32(i)+0.25) {
				flipped = append(flipped, i)
			}
		}
		ep.SyncClock()
	})
	if len(flipped) > 0 {
		t.Errorf("the corrupt verdict flipped the sender's own elements %v", flipped)
	}
	checkCorruptCause(t, own, panicked, sched.Faults[0])
}
