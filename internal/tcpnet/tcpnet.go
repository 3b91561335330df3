// Package tcpnet is the distributed comm backend: each of the P workers is
// a separate OS process (or, in tests, any mix of processes and
// goroutines) exchanging length-prefixed frames over real TCP sockets.
// Every payload is serialized through the comm payload registry — sparse
// chunks go through the wire codecs, so the bytes crossing a socket are
// exactly the Encode/Decode stream livenet moves through its in-memory
// queues — and parsed back at the receiver. tcpnet is the step from
// "hardware-honest in one process" (livenet) to "actually distributed":
// separate address spaces, a real kernel network stack, and processes that
// can genuinely crash.
//
// # Topology
//
// Rank 0 acts as rendezvous: it listens on a well-known address, assigns
// ranks to workers as they check in, and distributes the full peer address
// map. Every worker also opens its own data listener; after rendezvous the
// workers dial a full mesh — one TCP connection per unordered pair, with
// the higher rank dialing the lower — and each direction of a connection
// carries that ordered pair's frames.
//
// # Determinism contract
//
// Identical to the other backends (see package comm): every Recv names its
// source rank, per-(sender, receiver) delivery is FIFO (one TCP stream
// direction per ordered pair, one writer and one reader goroutine each),
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
// Sends never block (per-peer unbounded outbound queues mirror the eager
// simnet/livenet semantics, so all three backends execute identical
// schedules). A lost peer — crashed process, killed connection — closes
// that peer's queues with a recorded cause: every blocked or future
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
	"os"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
)

// Protocol constants. The magic/version prefix guards both the rendezvous
// hello and the mesh handshake against foreign connections. Version 2 added
// generation numbers to every hello, assignment and handshake, and the
// stable-ID map to the assignment — the elastic re-rendezvous protocol.
var magic = [4]byte{'S', 'P', 'D', 'L'}

const protoVersion = 2

// ErrRendezvous tags every Start failure that happened before the mesh came
// up — an unreachable or timed-out rendezvous, a torn check-in budget, an
// assignment mismatch — so callers (spardl-worker's exit codes) can tell
// "the cluster never formed" apart from a mid-training poisoned fabric.
var ErrRendezvous = errors.New("tcpnet: rendezvous failed")

// EnvTimeout optionally overrides the default 30s rendezvous/mesh/drain
// timeout with a time.ParseDuration string — "5m" for WAN clusters whose
// workers come up minutes apart, "5s" for impatient local test sweeps.
const EnvTimeout = "SPARDL_TCP_TIMEOUT"

func defaultTimeout() time.Duration {
	if s := os.Getenv(EnvTimeout); s != "" {
		if d, err := time.ParseDuration(s); err == nil && d > 0 {
			return d
		}
	}
	return 30 * time.Second
}

// Frame kinds.
const (
	frameData byte = 0 // payload frame: uvarint accounted, uvarint len, bytes
	frameSync byte = 1 // SyncClock barrier token, no body
)

// Config describes one worker's view of the cluster.
type Config struct {
	// Rendezvous is the host:port rank 0 listens on for worker check-in.
	Rendezvous string
	// P is the total number of workers.
	P int
	// Rank is this worker's rank. Rank 0 must be explicit (it hosts the
	// rendezvous); other workers may pass -1 to have the rendezvous assign
	// the next free rank in arrival order.
	Rank int
	// Host is the host/IP this worker binds and advertises for its data
	// listener. Empty defaults to the host part of Rendezvous — correct
	// for single-machine (loopback) clusters; multi-host workers set it to
	// their own reachable address.
	Host string
	// Timeout bounds rendezvous and mesh establishment, and the graceful
	// drain in Close. Zero defaults to SPARDL_TCP_TIMEOUT, or 30s.
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
		c.Timeout = defaultTimeout()
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
// connection is up or the deadline passes.
func Start(cfg Config) (*Endpoint, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(cfg.Timeout)
	if cfg.P == 1 {
		return newEndpoint(newLink(cfg, 0), cfg), nil
	}

	dataLn, err := net.Listen("tcp", net.JoinHostPort(cfg.Host, "0"))
	if err != nil {
		return nil, fmt.Errorf("%w: data listener: %v", ErrRendezvous, err)
	}
	defer dataLn.Close()
	dataLn.(*net.TCPListener).SetDeadline(deadline)

	var rank int
	var addrs []string
	if cfg.Rank == 0 {
		addrs, err = serveRendezvous(cfg, dataLn.Addr().String(), deadline)
		rank = 0
	} else {
		rank, addrs, err = checkIn(cfg, dataLn.Addr().String(), deadline)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRendezvous, err)
	}

	return meshUp(cfg, rank, dataLn, addrs, deadline)
}

// meshUp establishes the full mesh for an agreed membership and puts the
// runtime on it. A failed mesh is severed, so nothing established so far
// is left stranded to hang a peer.
func meshUp(cfg Config, rank int, dataLn net.Listener, addrs []string, deadline time.Time) (*Endpoint, error) {
	l := newLink(cfg, rank)
	if err := l.mesh(dataLn, addrs, cfg.Gen, deadline); err != nil {
		l.Sever(err.Error())
		return nil, fmt.Errorf("%w: %v", ErrRendezvous, err)
	}
	return newEndpoint(l, cfg), nil
}

// serveRendezvous is rank 0's side of check-in: accept P-1 hellos, assign
// ranks (explicit requests win; -1 workers fill the free slots in arrival
// order), then send every worker its rank, the stable-ID map and the full
// data-address map. A torn or foreign check-in — a worker that died
// mid-hello, a port scanner, a straggler from a stale generation — is
// dropped and the listener keeps accepting: the dead worker's replacement
// (or its retry) re-registers on a fresh connection. A strike budget still
// catches a systematically broken cluster instead of looping to the
// deadline.
func serveRendezvous(cfg Config, ownDataAddr string, deadline time.Time) ([]string, error) {
	ln := cfg.listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", cfg.Rendezvous); err != nil {
			return nil, fmt.Errorf("tcpnet: rendezvous listener on %s: %w", cfg.Rendezvous, err)
		}
	}
	defer ln.Close()
	ln.(*net.TCPListener).SetDeadline(deadline)

	type checkin struct {
		conn net.Conn
		want int
		addr string
	}
	pending := make([]*checkin, 0, cfg.P-1)
	defer func() {
		for _, c := range pending {
			c.conn.Close()
		}
	}()
	strikes := 0
	for len(pending) < cfg.P-1 {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("tcpnet: rendezvous accept (have %d/%d workers): %w", len(pending), cfg.P-1, err)
		}
		conn.SetDeadline(deadline)
		want, gen, addr, err := readHello(conn)
		if err == nil && gen != cfg.Gen {
			err = fmt.Errorf("stale generation %d (rendezvous is at %d)", gen, cfg.Gen)
		}
		if err != nil {
			conn.Close()
			strikes++
			if strikes > 4*cfg.P {
				return nil, fmt.Errorf("tcpnet: rendezvous gave up after %d bad check-ins, last: %v", strikes, err)
			}
			continue
		}
		pending = append(pending, &checkin{conn: conn, want: want, addr: addr})
	}

	addrs := make([]string, cfg.P)
	addrs[0] = ownDataAddr
	ranks := make([]int, len(pending))
	// Pass 1: explicit requests.
	for i, c := range pending {
		ranks[i] = -1
		if c.want < 0 {
			continue
		}
		if c.want == 0 || c.want >= cfg.P || addrs[c.want] != "" {
			return nil, fmt.Errorf("tcpnet: worker requested rank %d (taken or out of range for P=%d)", c.want, cfg.P)
		}
		addrs[c.want] = c.addr
		ranks[i] = c.want
	}
	// Pass 2: fill free slots in arrival order.
	next := 1
	for i, c := range pending {
		if ranks[i] >= 0 {
			continue
		}
		for addrs[next] != "" {
			next++
		}
		addrs[next] = c.addr
		ranks[i] = next
	}
	ids := cfg.IDs
	if ids == nil {
		ids = make([]int, cfg.P)
		for i := range ids {
			ids[i] = i
		}
	}
	for i, c := range pending {
		if err := writeAssignment(c.conn, ranks[i], cfg.Gen, ids, addrs); err != nil {
			return nil, fmt.Errorf("tcpnet: rendezvous reply to rank %d: %w", ranks[i], err)
		}
		c.conn.Close()
	}
	pending = nil
	return addrs, nil
}

// checkIn is the non-zero worker's side of rendezvous: dial rank 0 (with
// retry — workers race rank 0's listen), announce the desired rank and the
// data address, and receive the assignment plus the ID and address maps. A
// check-in whose hello tore mid-write re-registers on a fresh connection —
// the rendezvous struck the torn half out without consuming a slot — up to
// a small attempt budget within the deadline.
func checkIn(cfg Config, dataAddr string, deadline time.Time) (int, []string, error) {
	var lastErr error
	for attempt := 0; attempt < 4 && time.Now().Before(deadline); attempt++ {
		rank, addrs, err := checkInOnce(cfg, dataAddr, deadline)
		if err == nil {
			return rank, addrs, nil
		}
		lastErr = err
		if !errors.Is(err, errTornCheckIn) {
			return 0, nil, err
		}
	}
	return 0, nil, lastErr
}

// errTornCheckIn marks a check-in failure where the hello provably did not
// register (the write itself failed), making a bounded retry safe: a hello
// that registered but whose assignment read failed must NOT retry — the
// slot is consumed, and a second registration would corrupt the count.
var errTornCheckIn = errors.New("torn check-in")

func checkInOnce(cfg Config, dataAddr string, deadline time.Time) (int, []string, error) {
	conn, err := dialRetry(cfg.Rendezvous, cfg.Rank+1, deadline)
	if err != nil {
		return 0, nil, fmt.Errorf("tcpnet: rendezvous at %s unreachable: %w", cfg.Rendezvous, err)
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	if err := writeHello(conn, cfg.Rank, cfg.Gen, dataAddr); err != nil {
		return 0, nil, fmt.Errorf("tcpnet: hello: %w (%w)", err, errTornCheckIn)
	}
	rank, gen, ids, addrs, err := readAssignment(conn)
	if err != nil {
		return 0, nil, fmt.Errorf("tcpnet: rendezvous assignment: %w", err)
	}
	if gen != cfg.Gen {
		return 0, nil, fmt.Errorf("tcpnet: rendezvous is at generation %d, this worker is at %d", gen, cfg.Gen)
	}
	if len(addrs) != cfg.P {
		return 0, nil, fmt.Errorf("tcpnet: rendezvous says P=%d, this worker was configured for P=%d", len(addrs), cfg.P)
	}
	if cfg.Rank >= 0 && rank != cfg.Rank {
		return 0, nil, fmt.Errorf("tcpnet: rendezvous assigned rank %d, wanted %d", rank, cfg.Rank)
	}
	for i, id := range ids {
		if want := cfg.IDs; want != nil && want[i] != id {
			return 0, nil, fmt.Errorf("tcpnet: rendezvous ID map disagrees at rank %d: %d vs %d", i, id, want[i])
		}
	}
	return rank, addrs, nil
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

func writePrefix(w io.Writer) error {
	var b []byte
	b = append(b, magic[:]...)
	b = binary.AppendUvarint(b, protoVersion)
	_, err := w.Write(b)
	return err
}

func readPrefix(br *bufio.Reader) error {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return err
	}
	if m != magic {
		return fmt.Errorf("bad magic %q", m[:])
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if v != protoVersion {
		return fmt.Errorf("protocol version %d, want %d", v, protoVersion)
	}
	return nil
}

// writeHello announces a worker to a rendezvous point. In a generation-0
// rendezvous, `want` is the desired rank (-1 to be assigned); in an
// elastic re-rendezvous (gen > 0), it carries the survivor's stable ID.
func writeHello(conn net.Conn, want, gen int, addr string) error {
	if err := writePrefix(conn); err != nil {
		return err
	}
	var b []byte
	b = binary.AppendVarint(b, int64(want))
	b = binary.AppendUvarint(b, uint64(gen))
	b = binary.AppendUvarint(b, uint64(len(addr)))
	b = append(b, addr...)
	_, err := conn.Write(b)
	return err
}

func readHello(conn net.Conn) (want, gen int, addr string, err error) {
	br := bufio.NewReader(conn)
	if err := readPrefix(br); err != nil {
		return 0, 0, "", err
	}
	r, err := binary.ReadVarint(br)
	if err != nil {
		return 0, 0, "", err
	}
	g, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, "", err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, "", err
	}
	if n > 1024 {
		return 0, 0, "", fmt.Errorf("implausible address length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, 0, "", err
	}
	return int(r), int(g), string(buf), nil
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
		b = binary.AppendUvarint(b, uint64(len(a)))
		b = append(b, a...)
	}
	_, err := conn.Write(b)
	return err
}

func readAssignment(conn net.Conn) (rank, gen int, ids []int, addrs []string, err error) {
	br := bufio.NewReader(conn)
	r, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	g, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	p, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	if p > 1<<16 {
		return 0, 0, nil, nil, fmt.Errorf("implausible worker count %d", p)
	}
	ids = make([]int, p)
	for i := range ids {
		id, err := binary.ReadVarint(br)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		ids[i] = int(id)
	}
	addrs = make([]string, p)
	for i := range addrs {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		if n > 1024 {
			return 0, 0, nil, nil, fmt.Errorf("implausible address length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return 0, 0, nil, nil, err
		}
		addrs[i] = string(buf)
	}
	return int(r), int(g), ids, addrs, nil
}

func writeHandshake(conn net.Conn, rank, gen int) error {
	if err := writePrefix(conn); err != nil {
		return err
	}
	var b []byte
	b = binary.AppendUvarint(b, uint64(rank))
	b = binary.AppendUvarint(b, uint64(gen))
	_, err := conn.Write(b)
	return err
}

// readHandshake identifies the dialing peer and its generation. The bufio
// reader must not over-read past the handshake — data frames follow on the
// same stream — so it reads byte by byte through a tiny adapter.
func readHandshake(conn net.Conn) (rank, gen int, err error) {
	one := oneByteReader{conn}
	var m [4]byte
	for i := range m {
		b, err := one.ReadByte()
		if err != nil {
			return 0, 0, err
		}
		m[i] = b
	}
	if m != magic {
		return 0, 0, fmt.Errorf("bad magic %q", m[:])
	}
	v, err := binary.ReadUvarint(one)
	if err != nil {
		return 0, 0, err
	}
	if v != protoVersion {
		return 0, 0, fmt.Errorf("protocol version %d, want %d", v, protoVersion)
	}
	r, err := binary.ReadUvarint(one)
	if err != nil {
		return 0, 0, err
	}
	g, err := binary.ReadUvarint(one)
	if err != nil {
		return 0, 0, err
	}
	return int(r), int(g), nil
}

// oneByteReader reads exactly one byte per syscall, so the handshake never
// consumes frame bytes that belong to the endpoint's buffered reader.
type oneByteReader struct{ c net.Conn }

func (o oneByteReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(o.c, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}
