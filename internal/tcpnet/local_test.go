package tcpnet

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spardl/internal/comm"
)

// TestLocalRendezvousPortIsHeld is the regression for the loopback
// rendezvous port race: the in-process backend used to pick its rendezvous
// port by bind :0, close, and let rank 0 re-bind the number, and anything
// binding port 0 in between — one of the fleet's own data listeners, or
// another test's — could be handed it, failing the generation with "bind:
// address already in use". The backend now opens the listener itself and
// hands it to rank 0 live. Back-to-back generations run while goroutines
// churn short-lived loopback listeners and dials; with the old release/
// re-bind window this loses the port within a few thousand generations
// (every one of several runs at the parent commit, in 0.6 to 13 s).
func TestLocalRendezvousPortIsHeld(t *testing.T) {
	if testing.Short() {
		t.Skip("runs loopback generations for several seconds")
	}
	var stop atomic.Bool
	var churn sync.WaitGroup
	for i := 0; i < 4; i++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for !stop.Load() {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					continue
				}
				if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
					c.Close()
				}
				ln.Close()
			}
		}()
	}
	defer func() { stop.Store(true); churn.Wait() }()

	b := LocalBackend(2 * time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for gen := 0; gen < 3000 && time.Now().Before(deadline); gen++ {
		failed := func() (r any) {
			defer func() { r = recover() }()
			b.Run(2, func(rank int, ep comm.Endpoint) { ep.SyncClock() })
			return nil
		}()
		if failed != nil {
			t.Fatalf("generation %d lost its rendezvous: %v", gen, failed)
		}
	}
}
