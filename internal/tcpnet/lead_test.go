package tcpnet

import (
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"
)

// leaderUnderTest runs lead for a three-worker generation — the leader is
// ID 0, the members 2 and 5 — on a live loopback listener, under the
// policy settle selects.
func leaderUnderTest(t *testing.T, settle time.Duration) (addr string, done <-chan leadResult) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{P: 3, Rank: 0, IDs: []int{0, 2, 5}, Gen: 1, listener: ln}
	ch := make(chan leadResult, 1)
	go func() {
		formed, addrs, err := lead(cfg, settle, "leader", time.Now().Add(10*time.Second))
		ch <- leadResult{formed, addrs, err}
	}()
	return ln.Addr().String(), ch
}

type leadResult struct {
	formed Config
	addrs  []string
	err    error
}

// sendHello dials the leader and writes b; tear half-closes the conn
// after it, as a worker that died mid-hello does.
func sendHello(t *testing.T, addr string, b []byte, tear bool) *net.TCPConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := c.(*net.TCPConn)
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	if tear {
		conn.CloseWrite()
	}
	return conn
}

// TestLeaderStrikesOutBadHellos holds the leader's hello checks under both
// policies. In every row one bad hello reaches the leader and must be
// struck out — its conn closed with no assignment — while the real
// membership still forms with the right ranks and addresses; deleting the
// row's check admits the bad hello in the real member's place. More bad
// hellos than the budget fail the dialog with ErrRendezvous.
func TestLeaderStrikesOutBadHellos(t *testing.T) {
	const gen = 1
	rows := []struct {
		name string
		bad  []byte
		tear bool
		// after2 sends the bad hello once member 2 is in.
		after2 bool
	}{
		{name: "foreign bytes", bad: append([]byte("HTTP"), appendHello(nil, 2, gen, "foreign")[4:]...)},
		{name: "stale generation", bad: appendHello(nil, 2, gen-1, "stale")},
		{name: "duplicate ID", bad: appendHello(nil, 2, gen, "duplicate"), after2: true},
		{name: "ID outside the membership", bad: appendHello(nil, 3, gen, "outsider")},
		{name: "torn hello, then its retry", bad: appendHello(nil, 2, gen, "127.0.0.1:2")[:12], tear: true},
	}
	policies := []struct {
		name   string
		settle time.Duration
	}{{"start", 0}, {"rejoin", 5 * time.Second}}

	for _, pol := range policies {
		for _, row := range rows {
			t.Run(pol.name+"/"+row.name, func(t *testing.T) {
				addr, done := leaderUnderTest(t, pol.settle)
				struck := func() {
					t.Helper()
					bad := sendHello(t, addr, row.bad, row.tear)
					if n, err := bad.Read(make([]byte, 1)); n != 0 || err == nil || strings.Contains(err.Error(), "timeout") {
						t.Fatalf("bad hello was not struck out: read %d bytes, %v", n, err)
					}
				}
				if !row.after2 {
					struck()
				}
				w2 := sendHello(t, addr, appendHello(nil, 2, gen, "w2"), false)
				if row.after2 {
					struck()
				}
				w5 := sendHello(t, addr, appendHello(nil, 5, gen, "w5"), false)

				wantIDs, wantAddrs := []int{0, 2, 5}, []string{"leader", "w2", "w5"}
				for wantRank, conn := range map[int]*net.TCPConn{1: w2, 2: w5} {
					rank, g, ids, addrs, err := readAssignment(conn)
					if err != nil || rank != wantRank || g != gen || !slices.Equal(ids, wantIDs) || !slices.Equal(addrs, wantAddrs) {
						t.Fatalf("assignment: rank %d gen %d ids %v addrs %v (%v); want rank %d gen %d ids %v addrs %v",
							rank, g, ids, addrs, err, wantRank, gen, wantIDs, wantAddrs)
					}
				}
				res := <-done
				if res.err != nil || res.formed.Rank != 0 || !slices.Equal(res.formed.IDs, wantIDs) || !slices.Equal(res.addrs, wantAddrs) {
					t.Fatalf("leader formed rank %d ids %v addrs %v (%v)", res.formed.Rank, res.formed.IDs, res.addrs, res.err)
				}
			})
		}
		t.Run(pol.name+"/budget", func(t *testing.T) {
			addr, done := leaderUnderTest(t, pol.settle)
			for i := 0; i < 4*3+1; i++ {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					break // the leader already gave up
				}
				c.Write(rows[0].bad)
				c.Close()
			}
			res := <-done
			if !errors.Is(res.err, ErrRendezvous) || !strings.Contains(res.err.Error(), "gave up after 13 bad check-ins") {
				t.Fatalf("overflowing the strike budget: %v, want ErrRendezvous after 13 strikes", res.err)
			}
		})
	}
}
