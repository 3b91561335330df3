package tcpnet

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
)

// scriptedInjector records every Outbound consultation and answers with the
// verdict scripted for that frame ordinal (healthy when none is).
type scriptedInjector struct {
	calls   []int // peer of each consultation, in order
	verdict map[int]chaos.Action
}

func (s *scriptedInjector) Outbound(peer int) chaos.Action {
	n := len(s.calls)
	s.calls = append(s.calls, peer)
	return s.verdict[n]
}

func (s *scriptedInjector) CrashIter() int { return -1 }

// deliverPair puts rank 0 of a two-worker link on one end of a loopback
// socket pair, with inj as its fault schedule and stable ID 9 for rank 1,
// and returns a frame reader on the other end.
func deliverPair(t *testing.T, inj chaos.Injector) (*link, *frameReader) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	l := newLink(Config{P: 2, IDs: []int{0, 9}, Injector: inj, Timeout: time.Second}, 0)
	if err := l.register(1, server); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { within(t, guard, func() { l.Sever("test done") }) })
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	return l, newFrameReader(client, func(n int) []byte { return make([]byte, n) })
}

// TestDeliverChaosPerFrame pins tcpnet's per-frame fault injection: exactly
// one Outbound verdict per frame — data frames, barrier tokens and empty
// payloads alike — at the frame's ordinal, for the receiver's stable ID; a
// corruption flips exactly payload byte 0 and byte len/2 on the wire,
// across the Buf/Tail seam, while the caller's Buf and Tail come back
// untouched, and the schedule's entry is noted as the root cause; and a
// drop, a corrupted token and a corrupted empty payload sever the
// connection before the frame's first byte, naming the schedule's fault.
func TestDeliverChaosPerFrame(t *testing.T) {
	big := make([]byte, 300) // a two-byte length varint
	for i := range big {
		big[i] = byte(i)
	}
	// frame returns a fresh copy of test frame i: a successful Deliver
	// takes ownership of Buf (it goes back to comm.FrameBufs).
	frame := func(i int) comm.Frame {
		f := []comm.Frame{
			{Buf: []byte{0xAA}, Accounted: 1},
			{Token: true},
			{Buf: big[:7], Tail: big[7:], Accounted: 300, Epoch: 1},
			{Buf: []byte{}, Accounted: 0, Epoch: 1},
			{Buf: []byte{1, 2}, Tail: []byte{3, 4, 5}, Accounted: 5, Epoch: 128}, // a two-byte epoch
		}[i]
		if f.Buf != nil {
			f.Buf = append([]byte{}, f.Buf...)
		}
		return f
	}
	const frames = 5
	corrupt := chaos.Action{Corrupt: true, Fault: &chaos.Fault{Kind: chaos.Corrupt, Rank: 0, Peer: 9, Frame: 2}}

	t.Run("one verdict per frame, corruption on the wire only", func(t *testing.T) {
		inj := &scriptedInjector{verdict: map[int]chaos.Action{2: corrupt, 4: corrupt}}
		l, fr := deliverPair(t, inj)
		for i := 0; i < frames; i++ {
			f := frame(i)
			buf, tail := string(f.Buf), string(f.Tail)
			var err error
			within(t, guard, func() { err = l.Deliver(1, f) })
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if string(f.Buf) != buf || string(f.Tail) != tail {
				t.Fatalf("frame %d: Deliver changed the caller's bytes", i)
			}
			got, err := fr.next()
			if err != nil {
				t.Fatalf("frame %d: read: %v", i, err)
			}
			want := append([]byte(buf), tail...)
			if _, bad := inj.verdict[i]; bad {
				chaos.CorruptBytes(want)
			}
			if got.kind == frameSync != f.Token || string(got.buf) != string(want) || got.accounted != f.Accounted || got.epoch != f.Epoch {
				t.Fatalf("frame %d: wire carried kind %d %v (accounted %d, epoch %d), want token=%v %v (accounted %d, epoch %d)",
					i, got.kind, got.buf, got.accounted, got.epoch, f.Token, want, f.Accounted, f.Epoch)
			}
		}
		if len(inj.calls) != frames {
			t.Fatalf("%d Outbound calls for %d frames", len(inj.calls), frames)
		}
		for i, peer := range inj.calls {
			if peer != 9 {
				t.Fatalf("frame %d consulted peer %d, want stable ID 9", i, peer)
			}
		}
		if got, want := l.root.String(), corrupt.Fault.Corrupted(); got != want {
			t.Fatalf("root cause after a corrupted payload: %q, want the schedule's %q", got, want)
		}
	})

	for _, tc := range []struct {
		name  string
		frame int
		act   chaos.Action
	}{
		{"drop", 0, chaos.Action{Drop: true, Fault: &chaos.Fault{Kind: chaos.Drop, Peer: 9, Frame: 1}}},
		{"corrupted token", 1, corrupt},
		{"corrupted empty payload", 3, corrupt},
	} {
		t.Run(tc.name+" severs before the frame", func(t *testing.T) {
			inj := &scriptedInjector{verdict: map[int]chaos.Action{1: tc.act}}
			l, fr := deliverPair(t, inj)
			var healthy, err error
			within(t, guard, func() {
				healthy = l.Deliver(1, frame(4))
				err = l.Deliver(1, frame(tc.frame))
			})
			if healthy != nil {
				t.Fatalf("healthy frame 0: %v", healthy)
			}
			cause := tc.act.Fault.Severed()
			if err == nil || !strings.Contains(err.Error(), cause) || l.root.String() != cause {
				t.Fatalf("Deliver = %v, root cause %q; want the schedule's cause %q", err, l.root.String(), cause)
			}
			if _, err := fr.next(); err != nil {
				t.Fatalf("frame 0 lost: %v", err)
			}
			if m, err := fr.next(); err != io.EOF {
				t.Fatalf("after the sever the stream carried %+v, %v; want EOF at the frame boundary", m, err)
			}
			if len(inj.calls) != 2 {
				t.Fatalf("%d Outbound calls for 2 frames", len(inj.calls))
			}
		})
	}
}

// elasticCounter is a minimal deterministic elastic workload: every
// iteration all-reduces the constant 1 and accumulates the total, with
// per-barrier history so a resumed generation rewinds exactly. It returns
// each generation's membership for assertions.
type elasticCounter struct {
	mu    sync.Mutex // guards accAt/seen; each hist is then its owner's alone
	iters int
	accAt map[int]map[int]float64 // id → barrier → accumulated value
	seen  []comm.Membership
}

func (c *elasticCounter) worker(m comm.Membership, ep comm.Endpoint) {
	c.mu.Lock()
	if c.accAt[m.ID] == nil {
		c.accAt[m.ID] = map[int]float64{0: 0}
	}
	if m.Rank == 0 {
		c.seen = append(c.seen, m)
	}
	hist := c.accAt[m.ID]
	c.mu.Unlock()
	resume := 0
	for b := range hist {
		if b > resume {
			resume = b
		}
	}
	if m.Gen > 0 {
		// Agree on the minimum passed barrier, like the elastic trainer.
		mine := resume
		for peer := 0; peer < m.P; peer++ {
			if peer != m.Rank {
				ep.Send(peer, float64(mine), 8)
			}
		}
		for peer := 0; peer < m.P; peer++ {
			if peer != m.Rank {
				v, _ := ep.Recv(peer)
				if b := int(v.(float64)); b < mine {
					mine = b
				}
			}
		}
		resume = mine
	}
	acc := hist[resume]
	for it := resume; it < c.iters; it++ {
		for peer := 0; peer < m.P; peer++ {
			if peer != m.Rank {
				ep.Send(peer, float64(1), 8)
			}
		}
		total := 1.0
		for peer := 0; peer < m.P; peer++ {
			if peer != m.Rank {
				v, _ := ep.Recv(peer)
				total += v.(float64)
			}
		}
		acc += total
		ep.SyncClock()
		hist[it+1] = acc
	}
}

// TestLocalElasticCrashShrinks drives a scheduled crash through the local
// TCP elastic driver: generation 1 must run with the survivors (crashed ID
// absent, ranks re-packed ascending), resume from the agreed barrier, and
// finish with every survivor bit-agreeing on the accumulated value.
func TestLocalElasticCrashShrinks(t *testing.T) {
	sched, err := chaos.Parse("crash:rank=1,iter=2")
	if err != nil {
		t.Fatal(err)
	}
	c := &elasticCounter{iters: 6, accAt: map[int]map[int]float64{}}
	b := LocalChaosBackend(10*time.Second, sched).(localBackend)
	var recs []comm.Recovery
	within(t, guard, func() {
		_, recs, err = b.RunElastic(3, comm.ElasticOptions{MinP: 2, MaxRestarts: 1}, c.worker)
	})
	if err != nil {
		t.Fatalf("elastic run failed: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("recoveries: %+v", recs)
	}
	r := recs[0]
	if r.Gen != 1 || r.P != 2 || len(r.Lost) != 1 || r.Lost[0] != 1 {
		t.Fatalf("recovery record: %+v", r)
	}
	if !strings.Contains(r.Cause, "(scheduled)") {
		t.Fatalf("cause does not name the scheduled crash: %q", r.Cause)
	}
	if len(c.seen) != 2 {
		t.Fatalf("generations seen by rank 0: %+v", c.seen)
	}
	g1 := c.seen[1]
	if g1.Gen != 1 || g1.P != 2 || g1.ID != 0 || len(g1.Lost) != 1 || g1.Lost[0] != 1 {
		t.Fatalf("generation-1 membership: %+v", g1)
	}
	// Survivors agree bit-exactly; the crash pinned the resume point at
	// barrier 2, so the total is 3 workers × 2 iterations + 2 workers × 4.
	want := 3.0*2 + 2.0*4
	for _, id := range []int{0, 2} {
		got := c.accAt[id][c.iters]
		if got != want {
			t.Fatalf("worker %d finished with %v, want %v", id, got, want)
		}
	}
}

// TestLocalElasticPartitionFailsFast pins the persistent-fault path: a
// partition re-fires every generation, so the driver must exhaust its
// restart budget and fail naming the partition as root cause, within the
// subtest deadline rather than hanging on the dead link.
func TestLocalElasticPartitionFailsFast(t *testing.T) {
	sched, err := chaos.Parse("partition:rank=0,peer=2,frame=0")
	if err != nil {
		t.Fatal(err)
	}
	c := &elasticCounter{iters: 4, accAt: map[int]map[int]float64{}}
	b := LocalChaosBackend(10*time.Second, sched).(localBackend)
	within(t, guard, func() {
		_, _, err = b.RunElastic(3, comm.ElasticOptions{MinP: 2, MaxRestarts: 2}, c.worker)
	})
	if err == nil {
		t.Fatal("persistent partition must fail the run")
	}
	if !strings.Contains(err.Error(), "partition") {
		t.Fatalf("error does not name the partition: %v", err)
	}
	if !strings.Contains(err.Error(), "giving up after 2 re-rendezvous") {
		t.Fatalf("error does not report the exhausted restart budget: %v", err)
	}
}

// TestStartRendezvousErrClass pins the error classification Start promises
// a spardl-train tcp rank: a rendezvous that never forms wraps ErrRendezvous.
func TestStartRendezvousErrClass(t *testing.T) {
	addr, err := ReserveLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Start(Config{Rendezvous: addr, P: 2, Rank: 1, Timeout: 500 * time.Millisecond})
	if err == nil {
		t.Fatal("check-in against a dead rendezvous must fail")
	}
	if !isRendezvousErr(err) {
		t.Fatalf("error not classified as rendezvous failure: %v", err)
	}
}

func isRendezvousErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), ErrRendezvous.Error())
}

// TestDialRetryJitterDeterministic pins the satellite contract on the
// backoff jitter: derived from the salt alone, so replays are exact, and
// different salts decorrelate.
func TestDialRetryJitterDeterministic(t *testing.T) {
	draw := func(salt int, rounds int) []uint64 {
		seq := uint64(salt)*0x9E3779B97F4A7C15 + 1
		out := make([]uint64, rounds)
		for i := range out {
			seq ^= seq << 13
			seq ^= seq >> 7
			seq ^= seq << 17
			out[i] = seq
		}
		return out
	}
	a, b := draw(1, 8), draw(1, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same salt must replay the same jitter stream")
		}
	}
	c := draw(2, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different salts must decorrelate")
	}
	// And the real dialer must still fail promptly against a dead address
	// with jitter applied (bounded backoff, deadline respected).
	addr, err := ReserveLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := dialRetry(addr, 3, time.Now().Add(300*time.Millisecond)); err == nil {
		t.Fatal("dial against a dead address must fail")
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("dialRetry overshot its deadline by %v", el)
	}
}
