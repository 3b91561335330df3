// Package tcpnet is the distributed comm backend: each of the P workers is
// a separate OS process (or, in tests, any mix of processes and
// goroutines) exchanging length-prefixed frames over real TCP sockets.
// Every payload is serialized by comm's payload codec — sparse chunks go
// through the wire codecs, so the bytes crossing a socket are exactly the
// stream livenet moves through its in-memory queues — and parsed back at
// the receiver. tcpnet is the step from
// "hardware-honest in one process" (livenet) to "actually distributed":
// separate address spaces, a real kernel network stack, and processes that
// can genuinely crash.
//
// # Topology
//
// One membership dialog forms every generation. A leader collects one hello
// per member — its stable ID, generation and data address — and answers
// each with its rank, its position in the ascending ID list, plus the ID
// and data-address maps; every other worker is a follower and checks in
// with it. Under the Start policy rank 0 leads on the well-known rendezvous
// address and waits for every member. Under the Rejoin policy, after a
// failure, the survivors elect a leader, which leads on a port derived from
// its ID and closes the membership once check-ins settle (rejoin.go). Every
// worker also opens its own data listener; once the membership is agreed
// the workers dial a full mesh — one TCP connection per unordered pair,
// with the higher rank dialing the lower — and each direction of a
// connection carries that ordered pair's frames.
//
// # Determinism contract
//
// Identical to the other backends (see package comm): every Recv names its
// source rank, per-(sender, receiver) delivery is FIFO (one TCP stream
// direction per ordered pair, written by the sending worker and read by one
// reader goroutine),
// and the codec round-trip preserves float32 values bit-exactly. The
// cross-backend equivalence test in this package forks real worker
// processes and pins bit-identity against simnet for every reducer factory
// and wire mode. Clock, CommTime, ExposedComm and OverlapSaved are
// measured wall seconds; BytesSent/BytesRecv count real serialized bytes,
// while the sender's accounted α-β size rides in the frame header exactly
// like livenet's in-memory envelope.
//
// # Failure model
//
// Sends are eager, as on simnet and livenet, so all three backends execute
// identical schedules: a send writes its frame on the sending goroutine and
// waits at most for the peer's kernel buffer, because every peer's reader
// goroutine drains its socket into an unbounded inbound queue whether or
// not its worker has called Recv. A lost peer — crashed process, killed
// connection — closes that peer's inbound queue with a recorded cause: every blocked or future
// Recv/Send involving the peer panics with a clean "worker N disconnected"
// error instead of hanging, and the panic cascades the usual way (worker
// dies, its sockets close, its peers unwind), so a poisoned fabric drains
// cluster-wide just as it does on livenet.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
)

// Protocol constants. The magic/version prefix guards both the rendezvous
// hello and the mesh handshake against foreign connections. Version 2 added
// generation numbers to every hello, assignment and handshake, and the
// stable-ID map to the assignment — the elastic re-rendezvous protocol;
// version 3 stamps every data frame with its sender's barrier count.
var magic = [4]byte{'S', 'P', 'D', 'L'}

const protoVersion = 3

// ErrRendezvous tags every Start failure that happened before the mesh came
// up — an unreachable or timed-out rendezvous, a torn check-in budget, an
// assignment mismatch — so callers (a spardl-train tcp rank's exit codes) can tell
// "the cluster never formed" apart from a mid-training poisoned fabric.
var ErrRendezvous = errors.New("tcpnet: rendezvous failed")

// Frame kinds.
const (
	frameData byte = 0 // payload frame: uvarint epoch, uvarint accounted, uvarint len, bytes
	frameSync byte = 1 // SyncClock barrier token, no body
)

// Config describes one worker's view of the cluster.
type Config struct {
	// Rendezvous is the host:port rank 0 listens on for worker check-in.
	Rendezvous string
	// P is the total number of workers.
	P int
	// Rank is this worker's rank. Rank 0 must be explicit (it leads the
	// rendezvous); other workers may pass -1 to have the rendezvous assign
	// the next free rank in arrival order.
	Rank int
	// Host is the host/IP this worker binds and advertises for its data
	// listener. Empty defaults to the host part of Rendezvous — correct
	// for single-machine (loopback) clusters; multi-host workers set it to
	// their own reachable address.
	Host string
	// Timeout bounds rendezvous and mesh establishment, and the graceful
	// drain in Close. Zero means 30s.
	Timeout time.Duration
	// Gen is the fabric generation this worker is rendezvousing for.
	// Generation 0 is the initial cluster; elastic re-rendezvous increments
	// it. The hello, assignment and mesh handshake all carry it, so a
	// straggler from a torn generation is struck out instead of corrupting
	// the new fabric.
	Gen int
	// IDs maps every rank to its stable identity — its generation-0 rank
	// (len P); nil means the identity map, correct for generation 0. State
	// carried across an elastic re-rendezvous, and every chaos schedule, is
	// keyed by stable ID, not by the current (re-packed) rank.
	IDs []int
	// Injector optionally injects this worker's scheduled faults (package
	// chaos) into its outbound frame streams; nil runs healthy. The same
	// injector must be carried across generations so one-shot faults do not
	// re-fire after a re-rendezvous.
	Injector chaos.Injector

	// The in-process backend's wiring. listener, set for rank 0 only, is
	// the rendezvous listener already bound to Rendezvous: handing over the
	// live listener leaves no window in which the port could be taken
	// (contrast ReserveLoopbackAddr). root is the generation's shared
	// root-cause record; nil gives the endpoint one of its own.
	listener net.Listener
	root     *comm.Cause
}

func (c Config) withDefaults() (Config, error) {
	if c.P < 1 {
		return c, fmt.Errorf("tcpnet: need at least one worker, got P=%d", c.P)
	}
	if c.Rank < -1 || c.Rank >= c.P {
		return c, fmt.Errorf("tcpnet: rank %d outside [0,%d) (or -1 to be assigned)", c.Rank, c.P)
	}
	if c.P > 1 && c.Rendezvous == "" {
		return c, fmt.Errorf("tcpnet: rendezvous address required for P=%d", c.P)
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.IDs != nil && len(c.IDs) != c.P {
		return c, fmt.Errorf("tcpnet: ID map has %d entries for P=%d", len(c.IDs), c.P)
	}
	if c.Host == "" && c.Rendezvous != "" {
		host, _, err := net.SplitHostPort(c.Rendezvous)
		if err != nil {
			return c, fmt.Errorf("tcpnet: bad rendezvous address %q: %w", c.Rendezvous, err)
		}
		c.Host = host
	}
	return c, nil
}

// Start performs rendezvous and full-mesh establishment and returns this
// worker's endpoint, ready for collectives. It blocks until every pairwise
// connection is up or the deadline passes. It runs the membership dialog
// under the Start policy: rank 0 leads and waits for every member; every
// other worker checks in and must be given the P, rank and ID map it was
// configured with.
func Start(cfg Config) (*Endpoint, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.P == 1 {
		return newEndpoint(newLink(cfg, 0), cfg), nil
	}
	return join(cfg, func(dataAddr string, deadline time.Time) (Config, []string, error) {
		if cfg.Rank == 0 {
			return lead(cfg, 0, dataAddr, deadline)
		}
		formed, addrs, err := checkIn(cfg, dataAddr, deadline)
		switch {
		case err != nil:
		case formed.P != cfg.P:
			err = rendezvousErr("rendezvous says P=%d, this worker was configured for P=%d", formed.P, cfg.P)
		case cfg.Rank >= 0 && formed.Rank != cfg.Rank:
			err = rendezvousErr("rendezvous assigned rank %d, wanted %d", formed.Rank, cfg.Rank)
		case cfg.IDs != nil && !slices.Equal(formed.IDs, cfg.IDs):
			err = rendezvousErr("rendezvous ID map %v disagrees with %v", formed.IDs, cfg.IDs)
		}
		return formed, addrs, err
	})
}

// join forms one generation: it opens this worker's data listener, runs
// the membership dialog — which returns the generation's Config (P, Rank
// and IDs as the leader assigned them) and data-address map — and puts the
// runtime on the full mesh among those addresses. A failed mesh is
// severed, so nothing established so far is left stranded to hang a peer.
func join(cfg Config, dialog func(dataAddr string, deadline time.Time) (Config, []string, error)) (*Endpoint, error) {
	deadline := time.Now().Add(cfg.Timeout)
	dataLn, err := net.Listen("tcp", net.JoinHostPort(cfg.Host, "0"))
	if err != nil {
		return nil, rendezvousErr("data listener: %v", err)
	}
	defer dataLn.Close()
	dataLn.(*net.TCPListener).SetDeadline(deadline)
	formed, addrs, err := dialog(dataLn.Addr().String(), deadline)
	if err != nil {
		return nil, err
	}
	l := newLink(formed, formed.Rank)
	if err := l.mesh(dataLn, addrs, formed.Gen, deadline); err != nil {
		l.Sever(err.Error())
		return nil, rendezvousErr("%v", err)
	}
	return newEndpoint(l, formed), nil
}

// rendezvousErr builds an error that wraps ErrRendezvous.
func rendezvousErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrRendezvous, fmt.Sprintf(format, args...))
}

// lead is the leader's side of the membership dialog. cfg is the
// membership it expects: the configured generation under the Start
// policy, the torn one under the Rejoin policy. The leader is cfg.Rank,
// and every other ID of cfg's ID map may check in. It listens on
// cfg.Rendezvous (or on the live cfg.listener), collects the hellos, and
// answers each with its rank — its position in the ascending list of IDs
// that made it — and the ID and data-address maps. settle is the policy:
// zero (Start) waits for every member; a positive window (Rejoin) closes
// the membership once no check-in has arrived for that long, and whoever
// has not checked in by then is presumed dead.
//
// A hello that does not belong — foreign bytes, a torn write, a stale
// generation, an ID outside the expected set or already in — is struck
// out and the listener keeps accepting: the worker's retry, or the real
// worker, registers on a fresh connection. A budget of 4×P strikes still
// catches a systematically broken cluster instead of looping to the
// deadline. Under the Start policy a hello may carry ID -1; once everyone
// is in, each such worker is given the smallest free ID, in arrival order.
func lead(cfg Config, settle time.Duration, dataAddr string, deadline time.Time) (Config, []string, error) {
	ln := cfg.listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", cfg.Rendezvous); err != nil {
			return cfg, nil, rendezvousErr("listener on %s: %v", cfg.Rendezvous, err)
		}
	}
	defer ln.Close()

	self := stableID(cfg.IDs, cfg.Rank)
	member := make(map[int]bool, cfg.P) // the IDs that may check in
	for r := 0; r < cfg.P; r++ {
		if r != cfg.Rank {
			member[stableID(cfg.IDs, r)] = true
		}
	}
	joined := make(map[int]bool, cfg.P)
	type hello struct {
		conn net.Conn
		id   int
		addr string
	}
	var in []hello // in arrival order
	defer func() {
		for _, h := range in {
			h.conn.Close()
		}
	}()
	strikes := 0
	for len(in) < cfg.P-1 {
		until := deadline
		if settle > 0 && time.Until(until) > settle {
			until = time.Now().Add(settle)
		}
		ln.(*net.TCPListener).SetDeadline(until)
		conn, err := ln.Accept()
		if err != nil {
			if settle > 0 {
				break // the membership has settled
			}
			return cfg, nil, rendezvousErr("accept (have %d/%d workers): %v", len(in), cfg.P-1, err)
		}
		conn.SetDeadline(deadline)
		id, gen, addr, err := readHello(conn)
		switch {
		case err != nil:
		case gen != cfg.Gen:
			err = fmt.Errorf("stale generation %d (rendezvous is at %d)", gen, cfg.Gen)
		case id == -1 && settle == 0:
		case !member[id]:
			err = fmt.Errorf("worker ID %d is not a member", id)
		case joined[id]:
			err = fmt.Errorf("worker ID %d has already checked in", id)
		}
		if err != nil {
			conn.Close()
			if strikes++; strikes > 4*cfg.P {
				return cfg, nil, rendezvousErr("gave up after %d bad check-ins, last: %v", strikes, err)
			}
			continue
		}
		joined[id] = true
		in = append(in, hello{conn: conn, id: id, addr: addr})
	}

	var free []int // the member IDs -1 hellos are given
	for id := range member {
		if !joined[id] {
			free = append(free, id)
		}
	}
	sort.Ints(free)
	ids := []int{self}
	for i := range in {
		if in[i].id == -1 {
			in[i].id, free = free[0], free[1:]
		}
		ids = append(ids, in[i].id)
	}
	sort.Ints(ids)
	addrs := make([]string, len(ids))
	addrs[sort.SearchInts(ids, self)] = dataAddr
	for _, h := range in {
		addrs[sort.SearchInts(ids, h.id)] = h.addr
	}
	for _, h := range in {
		if err := writeAssignment(h.conn, sort.SearchInts(ids, h.id), cfg.Gen, ids, addrs); err != nil {
			return cfg, nil, rendezvousErr("assignment to worker %d: %v", h.id, err)
		}
	}
	cfg.P, cfg.Rank, cfg.IDs = len(ids), sort.SearchInts(ids, self), ids
	return cfg, addrs, nil
}

// checkIn is the follower's side of the membership dialog: dial the leader
// at cfg.Rendezvous — workers race its listen, so for up to cfg.Timeout
// within the deadline: the whole deadline at start-up, the probe window at
// a rejoin — send the hello (this worker's stable ID, or -1 to be given
// one), and read the assignment, which it returns as the generation's
// Config and data-address map. A hello whose write failed provably did not
// register — the leader struck the torn half out — so it retries on a
// fresh connection, up to a small budget. Nothing else retries: a hello
// that registered holds its slot, and a second registration would be
// struck out as a duplicate.
func checkIn(cfg Config, dataAddr string, deadline time.Time) (Config, []string, error) {
	dialBy := time.Now().Add(cfg.Timeout)
	if dialBy.After(deadline) {
		dialBy = deadline
	}
	id := stableID(cfg.IDs, cfg.Rank)
	for attempt := 1; ; attempt++ {
		conn, err := dialRetry(cfg.Rendezvous, id+1, dialBy)
		if err != nil {
			return cfg, nil, rendezvousErr("leader at %s unreachable: %v", cfg.Rendezvous, err)
		}
		conn.SetDeadline(deadline)
		if err := writeHello(conn, id, cfg.Gen, dataAddr); err != nil {
			conn.Close()
			if attempt < 4 && time.Now().Before(dialBy) {
				continue
			}
			return cfg, nil, rendezvousErr("hello: %v", err)
		}
		rank, gen, ids, addrs, err := readAssignment(conn)
		conn.Close()
		switch {
		case err != nil:
			return cfg, nil, rendezvousErr("assignment: %v", err)
		case gen != cfg.Gen:
			return cfg, nil, rendezvousErr("leader is at generation %d, this worker is at %d", gen, cfg.Gen)
		}
		cfg.P, cfg.Rank, cfg.IDs = len(ids), rank, ids
		return cfg, addrs, nil
	}
}

// stableID maps a rank to its stable generation-0 ID; nil ids is the
// identity map, and rank -1 (not yet assigned) has ID -1.
func stableID(ids []int, rank int) int {
	if ids == nil || rank < 0 {
		return rank
	}
	return ids[rank]
}

// mesh establishes one connection per peer: dial every lower rank, accept
// from every higher rank. Dials and accepts run concurrently so the order
// in which peers come up cannot deadlock establishment. Each side
// registers its connections directly (register owns the conn as soon as
// it is established), so a mesh that fails partway strands nothing: the
// caller's Sever closes everything registered so far, and anything a
// still-running goroutine establishes afterwards is closed at
// registration time.
func (l *link) mesh(dataLn net.Listener, addrs []string, gen int, deadline time.Time) error {
	errs := make(chan error, 2)
	go func() {
		strikes := 0
		for i := 0; i < l.p-1-l.rank; {
			conn, err := dataLn.Accept()
			if err != nil {
				errs <- fmt.Errorf("tcpnet: mesh accept: %w", err)
				return
			}
			conn.SetDeadline(deadline)
			peer, peerGen, err := readHandshake(conn)
			if err == nil && peerGen != gen {
				err = fmt.Errorf("handshake from generation %d, fabric is at %d", peerGen, gen)
			}
			if err == nil && (peer <= l.rank || peer >= l.p) {
				err = fmt.Errorf("handshake from rank %d, expected a rank in (%d,%d) to dial us", peer, l.rank, l.p)
			}
			if err != nil {
				// A torn or foreign handshake — like a torn rendezvous hello
				// — strikes out without tearing the whole mesh down; the
				// real peer's connection is still coming.
				conn.Close()
				strikes++
				if strikes > 4*l.p {
					errs <- fmt.Errorf("tcpnet: mesh gave up after %d bad handshakes, last: %v", strikes, err)
					return
				}
				continue
			}
			conn.SetDeadline(time.Time{})
			if err := l.register(peer, conn); err != nil {
				errs <- err
				return
			}
			i++
		}
		errs <- nil
	}()
	go func() {
		for r := 0; r < l.rank; r++ {
			conn, err := dialRetry(addrs[r], l.rank, deadline)
			if err != nil {
				errs <- fmt.Errorf("tcpnet: dialing worker %d at %s: %w", r, addrs[r], err)
				return
			}
			conn.SetDeadline(deadline)
			if err := writeHandshake(conn, l.rank, gen); err != nil {
				conn.Close()
				errs <- fmt.Errorf("tcpnet: handshake to worker %d: %w", r, err)
				return
			}
			conn.SetDeadline(time.Time{})
			if err := l.register(r, conn); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()

	// On the first failure, return immediately: the caller severs the
	// link, and the other goroutine — bounded by the deadline — hands
	// any further connections to register, which closes them once the
	// link is marked closed. The buffered channel keeps its final
	// send from blocking.
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// dialRetry dials addr with jittered exponential backoff until the
// deadline — peers race each other's listener creation during startup, and
// on a re-rendezvous a whole fleet retries the same address at once. The
// jitter is derived deterministically from salt (the caller's rank or ID),
// so retries decorrelate — workers do not stampede the listener in
// lockstep — while chaos replays stay bit-reproducible: no global
// randomness is consulted.
func dialRetry(addr string, salt int, deadline time.Time) (net.Conn, error) {
	backoff := 2 * time.Millisecond
	seq := uint64(salt)*0x9E3779B97F4A7C15 + 1
	for {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		// xorshift* step: a cheap per-salt deterministic stream; the jitter
		// draw lands in [0, backoff/2].
		seq ^= seq << 13
		seq ^= seq >> 7
		seq ^= seq << 17
		sleep := backoff + time.Duration(seq%uint64(backoff/2+1))
		if time.Now().Add(sleep).After(deadline) {
			return nil, err
		}
		time.Sleep(sleep)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// --- wire helpers -------------------------------------------------------

// appendPrefix appends the magic/version prefix that opens every hello and
// handshake.
func appendPrefix(b []byte) []byte {
	b = append(b, magic[:]...)
	return binary.AppendUvarint(b, protoVersion)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendHello appends the hello a follower announces itself with: its
// stable ID (-1 to be given one), its generation and its data address.
func appendHello(b []byte, id, gen int, addr string) []byte {
	b = appendPrefix(b)
	b = binary.AppendVarint(b, int64(id))
	b = binary.AppendUvarint(b, uint64(gen))
	return appendString(b, addr)
}

func writeHello(conn net.Conn, id, gen int, addr string) error {
	_, err := conn.Write(appendHello(nil, id, gen, addr))
	return err
}

func readHello(conn net.Conn) (id, gen int, addr string, err error) {
	f := fields{r: bufio.NewReader(conn)}
	f.prefix()
	id, gen, addr = f.varint(), f.uvarint(), f.str()
	return id, gen, addr, f.err
}

func writeAssignment(conn net.Conn, rank, gen int, ids []int, addrs []string) error {
	var b []byte
	b = binary.AppendUvarint(b, uint64(rank))
	b = binary.AppendUvarint(b, uint64(gen))
	b = binary.AppendUvarint(b, uint64(len(addrs)))
	for _, id := range ids {
		b = binary.AppendVarint(b, int64(id))
	}
	for _, a := range addrs {
		b = appendString(b, a)
	}
	_, err := conn.Write(b)
	return err
}

func readAssignment(conn net.Conn) (rank, gen int, ids []int, addrs []string, err error) {
	f := fields{r: bufio.NewReader(conn)}
	rank, gen = f.uvarint(), f.uvarint()
	if p := f.uvarint(); f.err == nil && (p < 0 || p > 1<<16) {
		f.err = fmt.Errorf("implausible worker count %d", p)
	} else if f.err == nil {
		ids, addrs = make([]int, p), make([]string, p)
	}
	for i := range ids {
		ids[i] = f.varint()
	}
	for i := range addrs {
		addrs[i] = f.str()
	}
	return rank, gen, ids, addrs, f.err
}

func writeHandshake(conn net.Conn, rank, gen int) error {
	b := appendPrefix(nil)
	b = binary.AppendUvarint(b, uint64(rank))
	b = binary.AppendUvarint(b, uint64(gen))
	_, err := conn.Write(b)
	return err
}

// readHandshake identifies the dialing peer and its generation. It must not
// over-read past the handshake — data frames follow on the same stream — so
// it reads straight off the conn, one byte per varint byte.
func readHandshake(conn net.Conn) (rank, gen int, err error) {
	f := fields{r: byteConn{conn}}
	f.prefix()
	rank, gen = f.uvarint(), f.uvarint()
	return rank, gen, f.err
}

// byteConn reads exactly the bytes asked for, so the handshake never
// consumes frame bytes that belong to the endpoint's buffered reader.
type byteConn struct{ net.Conn }

func (c byteConn) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(c.Conn, b[:])
	return b[0], err
}

// fields reads the dialog's fields off a stream. The first error sticks:
// every later read returns a zero value, and err reports it.
type fields struct {
	r interface {
		io.Reader
		io.ByteReader
	}
	err error
}

// prefix checks the magic/version prefix.
func (f *fields) prefix() {
	var m [4]byte
	if _, f.err = io.ReadFull(f.r, m[:]); f.err == nil && m != magic {
		f.err = fmt.Errorf("bad magic %q", m[:])
	}
	if v := f.uvarint(); f.err == nil && v != protoVersion {
		f.err = fmt.Errorf("protocol version %d, want %d", v, protoVersion)
	}
}

func (f *fields) uvarint() int {
	if f.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(f.r)
	f.err = err
	return int(v)
}

func (f *fields) varint() int {
	if f.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(f.r)
	f.err = err
	return int(v)
}

// str reads a length-prefixed address.
func (f *fields) str() string {
	n := f.uvarint()
	if f.err == nil && (n < 0 || n > 1024) {
		f.err = fmt.Errorf("implausible address length %d", n)
	}
	if f.err != nil {
		return ""
	}
	buf := make([]byte, n)
	_, f.err = io.ReadFull(f.r, buf)
	return string(buf)
}
