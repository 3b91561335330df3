package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
	"spardl/internal/sparse"
)

// message is one received frame on its way from the reader goroutine to
// Next. accounted carries the sender's α-β byte accounting (returned by
// Recv) and epoch its barrier count (comm.Frame.Epoch); len(buf) is what
// the transport really moved.
type message struct {
	kind      byte
	buf       []byte
	accounted int
	epoch     int
}

// maxFrameBytes bounds a single data frame's payload. Legitimate frames
// top out around one dense gradient vector (a few MB at paper scale); the
// cap exists so a corrupt length prefix cannot demand an absurd
// allocation.
const maxFrameBytes = 1 << 30

// peer is one remote worker: the pair connection, the inbound queue its
// reader goroutine fills, the scratch Deliver writes a frame from, and the
// first failure cause.
type peer struct {
	rank  int
	conn  *net.TCPConn
	recvq *comm.Fifo[message]

	// hdr, iov and out belong to Deliver: the frame header, the backing
	// array of the vectored write, and the net.Buffers WriteTo consumes.
	// Kept here, none of them is allocated per frame.
	hdr [frameHdrMax]byte
	iov [3][]byte
	out net.Buffers

	// arena owns this peer's inbound payload bytes: the reader goroutine
	// carves frame-body destinations out of it (alloc) and the barrier
	// rotates it once per iteration. Sharding the storage per peer keeps
	// the lock a reader-vs-rotation affair — bump allocations measured in
	// nanoseconds — so no reader ever stalls behind another peer's reader
	// or behind Recv's decode.
	arenaMu sync.Mutex
	arena   *sparse.Arena

	mu    sync.Mutex
	cause string // first failure involving this peer; "" while healthy
}

// alloc carves an n-byte payload destination out of the peer's receive
// arena for its reader goroutine; arenaMu serializes it against
// the barrier's rotation.
func (pr *peer) alloc(n int) []byte {
	pr.arenaMu.Lock()
	b := pr.arena.Bytes(n)[:n]
	pr.arenaMu.Unlock()
	return b
}

// fail records cause (first writer wins) and closes the inbound queue so
// blocked and future Recvs unwind instead of hanging.
func (pr *peer) fail(cause string) {
	pr.mu.Lock()
	if pr.cause == "" {
		pr.cause = cause
	}
	pr.mu.Unlock()
	pr.recvq.Close()
}

// why returns the recorded failure cause, or a generic disconnect note.
func (pr *peer) why() string {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.cause != "" {
		return pr.cause
	}
	return fmt.Sprintf("worker %d disconnected", pr.rank)
}

// link is tcpnet's comm.Link: one framed TCP connection per peer, written
// by Deliver on the sending goroutine and read by one reader goroutine into
// an inbound FIFO.
type link struct {
	p, rank int
	timeout time.Duration
	peers   []*peer    // indexed by rank; peers[rank] == nil
	regMu   sync.Mutex // serializes mesh registration against Sever
	closed  atomic.Bool
	readers sync.WaitGroup

	// ids maps every current rank to its stable generation-0 ID, which is
	// what chaos schedules name workers by. inj, when non-nil, injects this
	// worker's scheduled link faults: Deliver consults it once per frame.
	ids []int
	inj chaos.Injector

	// root is the root-cause record of everything that fails together with
	// this link: the whole generation for the in-process backend, this
	// process for a forked worker. A scheduled fault notes itself here
	// before it closes anything, so an elastic driver reports the schedule
	// entry rather than one of the racy cascade panics it provokes.
	root *comm.Cause

	// decodeArena owns everything Recv decodes from inbound payload bytes
	// (chunk headers, pointer slices, wrapper structs); the decoded values
	// alias the per-peer arena slabs they were parsed from, and both arena
	// families rotate together, so the aliased bytes outlive the values.
	// It is deliberately unlocked: the Overlap contract keeps Recv and
	// SyncClock on a single goroutine at a time, so the decoder never
	// races itself — sparse.Arena's single-owner design, applied literally.
	decodeArena *sparse.Arena
}

func newLink(cfg Config, rank int) *link {
	l := &link{p: cfg.P, rank: rank, timeout: cfg.Timeout, peers: make([]*peer, cfg.P),
		ids: cfg.IDs, inj: cfg.Injector, root: cfg.root, decodeArena: sparse.NewArena()}
	if l.root == nil {
		l.root = new(comm.Cause)
	}
	for r := 0; r < cfg.P; r++ {
		if r != rank {
			l.peers[r] = &peer{rank: r, recvq: comm.NewFifo[message](), arena: sparse.NewArena()}
		}
	}
	return l
}

// idOf maps a current rank to its stable generation-0 ID.
func (l *link) idOf(rank int) int { return stableID(l.ids, rank) }

// register installs an established mesh connection for peer rank. It owns
// conn: on a duplicate, an invalid slot, or a link already severed (mesh
// failed elsewhere while this side was still connecting), the connection
// is closed and an error returned — no established socket is ever left
// stranded to hang a peer.
func (l *link) register(rank int, conn net.Conn) error {
	l.regMu.Lock()
	defer l.regMu.Unlock()
	if l.closed.Load() {
		conn.Close()
		return fmt.Errorf("tcpnet: endpoint closed during mesh establishment")
	}
	pr := l.peers[rank]
	if pr == nil || pr.conn != nil {
		conn.Close()
		return fmt.Errorf("tcpnet: duplicate mesh connection for worker %d", rank)
	}
	pr.conn = conn.(*net.TCPConn)
	pr.conn.SetNoDelay(true)
	return nil
}

// run starts the per-peer reader goroutines.
func (l *link) run() {
	for _, pr := range l.peers {
		if pr == nil {
			continue
		}
		l.readers.Add(1)
		go l.reader(pr)
	}
}

// closeWrites half-closes every stream. Every Deliver has finished its
// write by the time it returns, so peers receive every frame sent, then
// EOF; a CloseWrite error goes through pr.fail instead of vanishing, since
// a peer that missed frames must find a cause, not a clean EOF.
func (l *link) closeWrites() {
	for _, pr := range l.peers {
		if pr != nil {
			if err := pr.conn.CloseWrite(); err != nil {
				pr.fail(fmt.Sprintf("closing stream to worker %d: %v", pr.rank, err))
			}
		}
	}
}

// Endpoint is one worker's handle on the TCP fabric: the shared runtime
// (comm.NewLinkEndpoint — wall-clock time, real serialized byte counts)
// over this worker's socket mesh.
type Endpoint struct {
	comm.Node
	link *link
}

// newEndpoint puts the runtime on an established link; the clock starts
// here, once the mesh is fully up.
func newEndpoint(l *link, cfg Config) *Endpoint {
	id := l.idOf(l.rank)
	l.run()
	// A scheduled crash half-closes the streams first: every frame of
	// completed iterations is already written, so peers see EOF only after
	// all the crasher's data, exactly what a killed process's kernel
	// buffers deliver — and no barrier token for the crash iteration is
	// ever sent, which pins every survivor's resume point at this iteration
	// on every substrate. The crash is noted before the half-close: the
	// EOFs make the peers panic, and those panics must not be taken for the
	// root cause.
	onCrash := func(iter int) {
		l.root.Fail(fmt.Sprintf("worker %d: %v", id, chaos.Crashed{ID: id, Iter: iter}), l.closeWrites)
	}
	return &Endpoint{link: l, Node: comm.NewLinkEndpoint("tcpnet", l,
		comm.Membership{Gen: cfg.Gen, P: l.p, Rank: l.rank, ID: id}, cfg.Injector, onCrash)}
}

// reader moves frames from the peer's socket into the inbound queue until
// the stream ends. Any end — graceful close, crash, reset — closes the
// queue with a cause, so Recv surfaces a clean error rather than a hang;
// on balanced schedules nobody Recvs from a gracefully-finished peer
// again, so the cause is never observed in healthy runs.
func (l *link) reader(pr *peer) {
	defer l.readers.Done()
	fr := newFrameReader(pr.conn, pr.alloc)
	for {
		m, err := fr.next()
		if err != nil {
			switch {
			case l.closed.Load():
				pr.fail(fmt.Sprintf("worker %d: endpoint closed", pr.rank))
			case err == io.EOF:
				pr.fail(fmt.Sprintf("worker %d disconnected", pr.rank))
			default:
				pr.fail(fmt.Sprintf("worker %d connection failed: %v", pr.rank, err))
			}
			return
		}
		if !pr.recvq.Push(m) {
			return // inbound queue closed (Sever); the arena reclaims m.buf
		}
	}
}

// frameHdrMax bounds one frame's header: kind byte plus three uvarints
// (epoch, accounted size, payload length).
const frameHdrMax = 1 + 3*binary.MaxVarintLen64

// appendFrameHeader appends f's wire header onto dst: frameSync for a
// barrier token, otherwise frameData and the uvarint epoch, accounted and
// payload-length (Buf then Tail) fields. It is the single encoder Deliver
// and the round-trip fuzzer share.
func appendFrameHeader(dst []byte, f comm.Frame) []byte {
	if f.Token {
		return append(dst, frameSync)
	}
	dst = append(dst, frameData)
	dst = binary.AppendUvarint(dst, uint64(f.Epoch))
	dst = binary.AppendUvarint(dst, uint64(f.Accounted))
	return binary.AppendUvarint(dst, uint64(len(f.Buf)+len(f.Tail)))
}

// readerStickyBytes sizes the frame reader's sticky buffer, which exists
// for small-frame traffic: one read drains a burst of headers and short
// payloads in a single syscall. A SparDL sync on sync-tcp-small receives
// ≈ 3.7 KB per rank, and one at P = 8, n = 2¹⁸ sends ≈ 4 KB frames, so
// 8 KiB holds a whole burst. A payload that starts in the buffer has at most this many
// of its bytes memcpy'd out of it; the rest — all but a sliver of a dense
// all-reduce's 128–512 KiB frames — is read straight into its arena slab.
const readerStickyBytes = 8 << 10

// frameReader decodes the inbound frame stream: headers parse out of a
// small sticky buffer (one read covers many small frames), and
// data-frame payloads land directly in the storage the alloc callback
// provides — the receive path's zero-copy half: alloc hands out
// arena-owned slabs, so the payload's only user-space copy is the
// kernel-to-destination read itself.
type frameReader struct {
	src   io.Reader
	alloc func(n int) []byte
	buf   []byte
	r, w  int // unconsumed window of buf
}

func newFrameReader(src io.Reader, alloc func(n int) []byte) *frameReader {
	return &frameReader{src: src, alloc: alloc, buf: make([]byte, readerStickyBytes)}
}

// next reads one frame. io.EOF at a frame boundary is a clean close; a
// torn frame surfaces as ErrUnexpectedEOF, a corrupt header as a
// descriptive error — never a panic or an over-read past the frame.
func (fr *frameReader) next() (message, error) {
	kind, err := fr.readByte()
	if err != nil {
		return message{}, err // io.EOF here is a graceful close
	}
	if kind != frameData {
		if kind != frameSync {
			return message{}, badFrameKind(kind)
		}
		return message{kind: kind}, nil
	}
	epoch, err := fr.readUvarint()
	if err != nil {
		return message{}, frameErr(err)
	}
	acc, err := fr.readUvarint()
	if err != nil {
		return message{}, frameErr(err)
	}
	n, err := fr.readUvarint()
	if err != nil {
		return message{}, frameErr(err)
	}
	if n > maxFrameBytes {
		// A garbage length (torn frame, stray writer) must take the clean
		// "connection failed" poison path, not panic the process inside
		// an absurd allocation.
		return message{}, frameCapError(n)
	}
	buf := fr.alloc(int(n))
	// Drain whatever of the payload the sticky buffer already holds, then
	// read the remainder straight into its destination.
	c := copy(buf, fr.buf[fr.r:fr.w])
	fr.r += c
	if c < int(n) {
		if _, err := io.ReadFull(fr.src, buf[c:]); err != nil {
			return message{}, frameErr(err)
		}
	}
	return message{kind: kind, buf: buf, accounted: int(acc), epoch: int(epoch)}, nil
}

func (fr *frameReader) readByte() (byte, error) {
	for fr.r == fr.w {
		if err := fr.fill(); err != nil {
			return 0, err
		}
	}
	b := fr.buf[fr.r]
	fr.r++
	return b, nil
}

func (fr *frameReader) readUvarint() (uint64, error) {
	for {
		x, n := binary.Uvarint(fr.buf[fr.r:fr.w])
		if n > 0 {
			fr.r += n
			return x, nil
		}
		if n < 0 || fr.w-fr.r >= binary.MaxVarintLen64 {
			return 0, errMalformedVarint
		}
		if err := fr.fill(); err != nil {
			return 0, err
		}
	}
}

// fill reads more bytes into the sticky buffer, compacting the consumed
// prefix when the tail runs out of room; it errors only when no byte
// arrived.
func (fr *frameReader) fill() error {
	if fr.r == fr.w {
		fr.r, fr.w = 0, 0
	} else if fr.w == len(fr.buf) {
		fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
		fr.r = 0
	}
	n, err := fr.src.Read(fr.buf[fr.w:])
	fr.w += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// errMalformedVarint, badFrameKind and frameCapError keep error
// construction out of the per-frame read path; all three feed the reader's
// clean "connection failed" poison route.
var errMalformedVarint = errors.New("malformed frame header varint")

func badFrameKind(kind byte) error {
	return fmt.Errorf("unknown frame kind 0x%02x", kind)
}

func frameCapError(n uint64) error {
	return fmt.Errorf("frame length %d exceeds the %d-byte protocol cap", n, maxFrameBytes)
}

// frameErr maps an EOF in the middle of a frame to ErrUnexpectedEOF so the
// reader reports "connection failed" (a torn frame — crash territory)
// rather than a clean disconnect.
func frameErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Deliver implements comm.Link: it writes the frame on the calling
// goroutine — header, Buf and the borrowed Tail in one vectored write
// (writev) — so a dense payload goes from the sender's vector to the
// kernel with no user-space copy, and Buf returns to comm.FrameBufs once
// written. The write waits only for the peer's kernel buffer: its reader
// goroutine drains the socket whether or not its worker has called Recv.
// No lock is held across the write — the Link contract gives Deliver one
// goroutine at a time, and Sever unblocks a write in progress by closing
// the connection.
//
// A worker with a fault schedule asks it once per frame (comm.Afflict).
// A scheduled sever fails this connection alone, before the frame's first
// byte, so the receiver sees a torn stream exactly where the schedule says:
// the fault is noted as the root cause before the close, so elastic
// recovery reports the schedule entry, not one of the cascade failures the
// dead socket provokes. Closing the full connection makes the sever
// symmetric, like livenet's poisoned queues.
func (l *link) Deliver(to int, f comm.Frame) error {
	pr := l.peers[to]
	w, cause := f, ""
	if l.inj != nil {
		w, cause = comm.Afflict(l.inj.Outbound(l.idOf(to)), f, l.root)
	}
	var err error
	if cause != "" {
		l.root.Fail(cause, func() { pr.conn.Close() })
		err = errors.New(cause)
	} else {
		pr.out = append(pr.iov[:0], appendFrameHeader(pr.hdr[:0], w), w.Buf, w.Tail)
		_, err = pr.out.WriteTo(pr.conn)
	}
	if err != nil {
		clear(pr.iov[:]) // a failed write leaves references to the caller's memory
		pr.fail(fmt.Sprintf("send to worker %d failed: %v", pr.rank, err))
		return errors.New(pr.why())
	}
	if f.Buf != nil {
		comm.FrameBufs.Put(f.Buf)
	}
	return nil
}

// Next implements comm.Link. Data frames come with the decode arena: their
// bytes are arena-owned storage the reader filled straight off the socket,
// so payloads decode in place instead of copying to pooled heap buffers.
// Reading another goroutine's finished write to the buffer is ordered by
// the queue handoff.
func (l *link) Next(from int) (comm.Frame, *sparse.Arena, error) {
	pr := l.peers[from]
	m, ok := pr.recvq.Pop()
	if !ok {
		return comm.Frame{}, nil, errors.New(pr.why())
	}
	return comm.Frame{Buf: m.buf, Accounted: m.accounted, Epoch: m.epoch, Token: m.kind == frameSync}, l.decodeArena, nil
}

// Rotate implements comm.Link: a fresh epoch in every receive arena. The
// one-epoch quarantine keeps the finished iteration's decoded payloads,
// and any next-iteration frames that raced ahead of the barrier, readable
// until the rotation after next, by which point the schedule has consumed
// them (the same lifetime argument simnet makes for sender-arena refs).
func (l *link) Rotate() {
	for _, pr := range l.peers {
		if pr != nil {
			pr.arenaMu.Lock()
			pr.arena.Reset()
			pr.arenaMu.Unlock()
		}
	}
	l.decodeArena.Reset()
}

// Close implements comm.Link: it half-closes every stream, waits — up to
// the configured timeout — for peers to close their sides (each reader
// exits at its peer's EOF), and then tears the connections down. The wait
// is bounded because a wedged peer must not block Close. After Sever it is
// a no-op.
func (l *link) Close() {
	if !l.closed.CompareAndSwap(false, true) {
		return
	}
	l.closeWrites()
	done := make(chan struct{})
	go func() {
		l.readers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(l.timeout):
	}
	for _, pr := range l.peers {
		if pr != nil {
			pr.conn.Close()
			pr.recvq.Close()
		}
	}
	<-done
}

// Sever implements comm.Link: it poisons every peer — sockets close (so
// remote blocked Recvs and a local write in progress unwind), local queues
// close (so local blocked Recvs unwind) — without waiting for any
// goroutine, so it is safe to call from the communication stream itself.
// Idempotent; the first recorded cause
// per peer wins. Holding regMu makes it atomic against in-flight mesh
// registration: a connection registers before this loop (and is closed
// here) or after the closed mark (and is closed by register).
func (l *link) Sever(cause string) {
	l.root.Fail(cause, func() {
		l.regMu.Lock()
		defer l.regMu.Unlock()
		l.closed.Store(true)
		for _, pr := range l.peers {
			if pr == nil {
				continue
			}
			pr.fail(cause)
			if pr.conn != nil {
				pr.conn.Close()
			}
		}
	})
}
