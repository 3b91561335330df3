package tcpnet

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// runLocal runs p tcpnet workers as goroutines of this process, each with
// its own endpoint over real loopback sockets. The transport cannot tell
// goroutines from processes — the forked equivalence test covers the
// separate-OS-process axis; these tests cover protocol correctness and
// race coverage cheaply.
func runLocal(t *testing.T, p int, worker func(rank int, ep *Endpoint)) {
	t.Helper()
	addr, err := ReserveLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]any, p)
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() { errs[rank] = recover() }()
			ep, err := Start(Config{Rendezvous: addr, P: p, Rank: rank, Timeout: 10 * time.Second})
			if err != nil {
				panic(err)
			}
			defer ep.Close()
			worker(rank, ep)
		}(rank)
	}
	wg.Wait()
	for rank, e := range errs {
		if e != nil {
			t.Fatalf("worker %d: %v", rank, e)
		}
	}
}

func TestAllPairsSendRecv(t *testing.T) {
	const p = 4
	runLocal(t, p, func(rank int, ep *Endpoint) {
		if ep.Rank() != rank || ep.P() != p {
			t.Errorf("rank/P mismatch: %d/%d", ep.Rank(), ep.P())
		}
		for to := 0; to < p; to++ {
			if to != rank {
				ep.Send(to, 100*rank+to, 8)
			}
		}
		for from := 0; from < p; from++ {
			if from == rank {
				continue
			}
			got, acc := ep.Recv(from)
			if got.(int) != 100*from+rank || acc != 8 {
				t.Errorf("rank %d: got %v (acc %d) from %d", rank, got, acc, from)
			}
		}
		ep.SyncClock()
		st := ep.Stats()
		if st.Rounds != p-1 || st.MsgsSent != p-1 {
			t.Errorf("rank %d: rounds=%d msgs=%d, want %d", rank, st.Rounds, st.MsgsSent, p-1)
		}
		if st.BytesSent == 0 || st.BytesRecv == 0 {
			t.Errorf("rank %d: zero real byte counts", rank)
		}
	})
}

func TestRankAssignment(t *testing.T) {
	// Only rank 0 is explicit; the rendezvous assigns the rest. Workers
	// verify mutual reachability under the assigned ranks.
	const p = 4
	addr, err := ReserveLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	seen := make([]bool, p)
	var mu sync.Mutex
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := -1
			if i == 0 {
				want = 0
			}
			ep, err := Start(Config{Rendezvous: addr, P: p, Rank: want, Timeout: 10 * time.Second})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			defer ep.Close()
			mu.Lock()
			if seen[ep.Rank()] {
				t.Errorf("rank %d assigned twice", ep.Rank())
			}
			seen[ep.Rank()] = true
			mu.Unlock()
			ep.SyncClock()
		}(i)
	}
	wg.Wait()
}

func TestAbortPoisonsBlockedPeers(t *testing.T) {
	// Worker 1 aborts mid-schedule; worker 0, blocked on Recv(1), must
	// panic with a clean cause promptly rather than hang.
	const p = 2
	addr, err := ReserveLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var r0panic any
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer func() { r0panic = recover() }()
		ep, err := Start(Config{Rendezvous: addr, P: p, Rank: 0, Timeout: 10 * time.Second})
		if err != nil {
			panic(err)
		}
		defer ep.Close()
		ep.Recv(1) // never fed
	}()
	go func() {
		defer wg.Done()
		ep, err := Start(Config{Rendezvous: addr, P: p, Rank: 1, Timeout: 10 * time.Second})
		if err != nil {
			panic(err)
		}
		time.Sleep(50 * time.Millisecond) // let rank 0 block
		ep.Abort("worker 1: synthetic crash")
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("poisoned fabric did not unwind: blocked Recv hangs")
	}
	if r0panic == nil {
		t.Fatal("blocked Recv returned instead of surfacing the poisoned fabric")
	}
	msg := fmt.Sprint(r0panic)
	if !strings.Contains(msg, "tcpnet") || !strings.Contains(msg, "worker 1") {
		t.Fatalf("unhelpful poison cause: %q", msg)
	}
}

// TestMeshFailureClosesEstablishedConns is the regression for the mesh
// error-path strand: when establishment fails partway (here: enough
// garbage handshakes to exhaust the stray-connection strike budget), every
// connection the worker already established must be closed — a peer whose
// own mesh succeeded must observe EOF/reset, never an open socket it waits
// on forever. Strayed handshakes below the budget are tolerated by design;
// only the exhausted budget fails the mesh.
func TestMeshFailureClosesEstablishedConns(t *testing.T) {
	addr, err := ReserveLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	startErr := make(chan error, 1)
	go func() {
		ep, err := Start(Config{Rendezvous: addr, P: 2, Rank: 0, Timeout: 5 * time.Second})
		if err == nil {
			ep.Abort("test: unexpected mesh success")
			err = fmt.Errorf("mesh succeeded despite garbage handshake")
		}
		startErr <- err
	}()

	// Play rank 1's rendezvous role by hand to learn rank 0's data address.
	dataLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dataLn.Close()
	deadline := time.Now().Add(5 * time.Second)
	_, addrs, err := checkIn(Config{Rendezvous: addr, P: 2, Rank: 1, Timeout: 5 * time.Second}, dataLn.Addr().String(), deadline)
	if err != nil {
		t.Fatal(err)
	}

	// Exhaust the strike budget with garbage handshakes (4*P+1 strikes fail
	// the mesh; rank 0 would otherwise tolerate strays and keep waiting for
	// the real peer), then the valid pair connection whose fate the
	// regression pins: established from this side after rank 0's mesh
	// already failed, so it must be torn down rather than stranded.
	for i := 0; i < 4*2+1; i++ {
		bad, err := dialRetry(addrs[0], 1, deadline)
		if err != nil {
			break // listener already gone: the budget is exhausted
		}
		bad.Write([]byte("not the spardl protocol"))
		bad.Close()
	}
	// Short deadline: if rank 0's listener is already gone (mesh failed
	// fast), retrying for the full establishment window only slows the
	// test — refusal is a healthy outcome here.
	good, err := dialRetry(addrs[0], 1, time.Now().Add(time.Second))
	if err == nil {
		defer good.Close()
		writeHandshake(good, 1, 0)
	}

	select {
	case err := <-startErr:
		if err == nil || !strings.Contains(err.Error(), "tcpnet") {
			t.Fatalf("want a tcpnet mesh error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Start did not fail on the garbage handshake")
	}
	// The valid, already-established connection must now die promptly
	// (reset from the closed listener backlog, or closed by abort if rank
	// 0 got as far as registering it). A dial refused outright — listener
	// already gone — is the same healthy outcome.
	if good != nil {
		good.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := good.Read(make([]byte, 1)); err == nil || strings.Contains(err.Error(), "timeout") {
			t.Fatalf("established conn not closed after mesh failure (read err: %v)", err)
		}
	}
}

// TestRegisterAfterAbortClosesConn pins the registration/abort atomicity:
// a connection a lingering mesh goroutine establishes after the endpoint
// aborted must be closed at registration, not stranded open.
func TestRegisterAfterAbortClosesConn(t *testing.T) {
	l := newLink(Config{P: 2, Timeout: time.Second}, 0)
	l.Sever("test abort")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	if err := l.register(1, server); err == nil {
		t.Fatal("register after abort must refuse the connection")
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Read(make([]byte, 1)); err == nil || strings.Contains(err.Error(), "timeout") {
		t.Fatalf("conn registered after abort was not closed (read err: %v)", err)
	}
}

func TestSingleWorker(t *testing.T) {
	ep, err := Start(Config{P: 1, Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.SyncClock()
	ep.Compute(0.5)
	if st := ep.Stats(); st.CompTime != 0.5 {
		t.Fatalf("stats: %+v", st)
	}
}
