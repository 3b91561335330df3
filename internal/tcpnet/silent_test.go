package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestSilentPeerEndsRendezvous plays, at every connection the membership
// dialog and the mesh open or accept, a peer that says nothing or never
// shows up. Each call must give up with ErrRendezvous once its deadline
// passes: a read or accept with no deadline on it waits for ever, and with
// it the whole generation. The rows run the Start policy (settle 0), under
// which a missing member fails the dialog instead of shrinking it.
func TestSilentPeerEndsRendezvous(t *testing.T) {
	const timeout = 300 * time.Millisecond
	// joinRank0 runs join as rank 0 of two; dial, when set, is what the
	// would-be rank 1 does to rank 0's data listener.
	joinRank0 := func(t *testing.T, dial bool) func() error {
		held := holdConns(t)
		cfg := Config{P: 2, Rank: 0, Host: "127.0.0.1", Timeout: timeout}
		return func() error {
			ep, err := join(cfg, func(dataAddr string, _ time.Time) (Config, []string, error) {
				if dial {
					c, err := net.Dial("tcp", dataAddr)
					if err != nil {
						return cfg, nil, err
					}
					held <- c
				}
				return cfg, []string{dataAddr, "127.0.0.1:1"}, nil
			})
			if ep != nil {
				ep.Abort("test: mesh formed without rank 1")
			}
			return err
		}
	}
	rows := []struct {
		name string
		// start sets the row up on the test goroutine and returns the
		// call under test, which runs under the guard.
		start func(t *testing.T) func() error
	}{
		{"lead/member connects and says nothing", func(t *testing.T) func() error {
			ln := listen(t)
			held := holdConns(t)
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			held <- c
			return func() error {
				_, _, err := lead(Config{P: 2, listener: ln}, 0, "leader", time.Now().Add(timeout))
				return err
			}
		}},
		{"lead/no member connects", func(t *testing.T) func() error {
			ln := listen(t)
			return func() error {
				_, _, err := lead(Config{P: 2, listener: ln}, 0, "leader", time.Now().Add(timeout))
				return err
			}
		}},
		{"checkIn/leader accepts and never answers", func(t *testing.T) func() error {
			ln := listen(t)
			held := holdConns(t)
			go func() {
				if c, err := ln.Accept(); err == nil {
					held <- c
				}
			}()
			cfg := Config{Rendezvous: ln.Addr().String(), P: 2, Rank: 1, Timeout: timeout}
			return func() error {
				_, _, err := checkIn(cfg, "member", time.Now().Add(timeout))
				return err
			}
		}},
		{"join/higher rank connects and says nothing", func(t *testing.T) func() error {
			return joinRank0(t, true)
		}},
		{"join/no higher rank dials", func(t *testing.T) func() error {
			return joinRank0(t, false)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			call := row.start(t)
			var err error
			within(t, guard, func() { err = call() })
			if !errors.Is(err, ErrRendezvous) {
				t.Fatalf("got %v, want ErrRendezvous", err)
			}
		})
	}
}

// listen opens a loopback listener that the test closes when it ends.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// holdConns returns a channel the test parks silent connections in; they
// stay open, never written to, until the test ends.
func holdConns(t *testing.T) chan<- net.Conn {
	held := make(chan net.Conn, 4)
	t.Cleanup(func() {
		for {
			select {
			case c := <-held:
				c.Close()
			default:
				return
			}
		}
	})
	return held
}

// within runs f on a goroutine of its own and waits at most d for it to
// return. A call still blocked after d is a hang — a read with no deadline,
// a lock held across a wait — and its wedged goroutines and sockets leave
// the rest of the package's tests nothing to stand on, so within ends the
// test binary: a panic naming the test, with every goroutine's stack,
// instead of go test's -timeout minutes later. A panic in f fails the test
// with f's stack. f must not call t's Fatal methods.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan string, 1) // f's panic and stack, if it panicked
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Sprintf("%v\n%s", r, debug.Stack())
			}
			close(done)
		}()
		f()
	}()
	select {
	case p, panicked := <-done:
		if panicked {
			t.Fatalf("panic: %s", p)
		}
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("%s: still blocked after %v; goroutines:\n%s", t.Name(), d, buf[:runtime.Stack(buf, true)]))
	}
}

// guard is how long a call the test expects to return promptly may take.
const guard = 10 * time.Second
