package tcpnet

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
)

// recordingInjector counts Outbound consultations per peer and applies no
// faults — the chaosConn parser test's probe.
type recordingInjector struct {
	calls   []int
	corrupt map[int]bool // frame ordinal → corrupt verdict
}

func (r *recordingInjector) Outbound(peer int) chaos.Action {
	n := len(r.calls)
	r.calls = append(r.calls, peer)
	if r.corrupt[n] {
		return chaos.Action{Corrupt: true, Fault: &chaos.Fault{Kind: chaos.Corrupt}}
	}
	return chaos.Action{}
}

func (r *recordingInjector) CrashIter() int { return -1 }

// memConn captures writes; the meshConn surface beyond Write is unused.
type memConn struct {
	net.Conn
	buf []byte
}

func (m *memConn) Write(p []byte) (int, error) { m.buf = append(m.buf, p...); return len(p), nil }
func (m *memConn) Close() error                { return nil }
func (m *memConn) CloseWrite() error           { return nil }

// TestChaosConnFrameAlignment pins the wrapper's core guarantee: exactly
// one Outbound verdict per frame, at the frame's ordinal, no matter how
// the byte stream is chunked into Write calls — including chunks that
// split a frame header mid-varint — and corruption flips exactly the
// bytes chaos.CorruptBytes would flip, on the wire only: the bytes handed
// to Write may be the sender's own vector and must come back untouched.
func TestChaosConnFrameAlignment(t *testing.T) {
	payloads := [][]byte{
		{0xAA},
		nil,               // barrier token
		make([]byte, 300), // two-byte length varint
		{1, 2, 3, 4, 5},
	}
	var stream []byte
	for _, p := range payloads {
		if p == nil {
			stream = append(stream, frameSync)
			continue
		}
		stream = appendFrameHeader(stream, comm.Frame{Buf: p, Accounted: len(p)})
		stream = append(stream, p...)
	}

	for _, chunk := range []int{1, 2, 3, 7, len(stream)} {
		inj := &recordingInjector{corrupt: map[int]bool{3: true}}
		mem := &memConn{}
		cc := &chaosConn{meshConn: mem, inj: inj, peerID: 9}
		for off := 0; off < len(stream); off += chunk {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			part := stream[off:end]
			before := string(part)
			if _, err := cc.Write(part); err != nil {
				t.Fatalf("chunk=%d: write: %v", chunk, err)
			}
			if string(part) != before {
				t.Fatalf("chunk=%d: Write flipped the caller's bytes at stream offset %d", chunk, off)
			}
		}
		if len(inj.calls) != len(payloads) {
			t.Fatalf("chunk=%d: %d Outbound calls for %d frames", chunk, len(inj.calls), len(payloads))
		}
		for i, peer := range inj.calls {
			if peer != 9 {
				t.Fatalf("chunk=%d: frame %d consulted peer %d", chunk, i, peer)
			}
		}
		// Frame 3's payload {1,2,3,4,5} must arrive with bytes 0 and 2
		// flipped exactly as CorruptBytes flips them.
		want := []byte{1, 2, 3, 4, 5}
		chaos.CorruptBytes(want)
		got := mem.buf[len(mem.buf)-5:]
		if string(got) != string(want) {
			t.Fatalf("chunk=%d: corrupt payload = %v, want %v", chunk, got, want)
		}
		// Everything before the corrupted payload must be byte-identical to
		// the original stream.
		if string(mem.buf[:len(mem.buf)-5]) != string(stream[:len(stream)-5]) {
			t.Fatalf("chunk=%d: healthy prefix mutated", chunk)
		}
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
	_, recs, err := b.RunElastic(3, comm.ElasticOptions{MinP: 2, MaxRestarts: 1}, c.worker)
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
	done := make(chan error, 1)
	go func() {
		_, _, err := b.RunElastic(3, comm.ElasticOptions{MinP: 2, MaxRestarts: 2}, c.worker)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("persistent partition must fail the run")
		}
		if !strings.Contains(err.Error(), "partition") {
			t.Fatalf("error does not name the partition: %v", err)
		}
		if !strings.Contains(err.Error(), "giving up after 2 re-rendezvous") {
			t.Fatalf("error does not report the exhausted restart budget: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("partitioned fleet hung instead of failing fast")
	}
}

// TestStartRendezvousErrClass pins the error classification Start promises
// spardl-worker: a rendezvous that never forms wraps ErrRendezvous.
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
