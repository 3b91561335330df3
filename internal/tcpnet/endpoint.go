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

// message is one frame in flight between the queues and the socket
// goroutines. accounted carries the sender's α-β byte accounting (returned
// by Recv); len(buf) is what the transport really moved.
type message struct {
	kind      byte
	buf       []byte
	accounted int
}

// maxFrameBytes bounds a single data frame's payload. Legitimate frames
// top out around one dense gradient vector (a few MB at paper scale); the
// cap exists so a corrupt length prefix cannot demand an absurd
// allocation.
const maxFrameBytes = 1 << 30

// putBuf returns a send-side serialization buffer to the runtime's pool:
// the runtime's Send marshals into a pooled buffer whose ownership rides
// the queue into the writer goroutine, which returns it here after the
// scatter/gather socket write consumes it. The receive side does not pool:
// payload bytes land directly in the peer's receive arena and are
// reclaimed wholesale by the per-iteration rotation (see link.Rotate).
func putBuf(b []byte) { comm.FrameBufs.Put(b) }

// meshConn is the connection surface the per-peer socket goroutines need:
// a byte stream with independent write-side shutdown. *net.TCPConn
// implements it directly (keeping the writev fast path); chaosConn wraps
// one to inject scheduled faults into the outbound frame stream.
type meshConn interface {
	net.Conn
	CloseWrite() error
}

// peer is one remote worker: the pair connection plus the inbound and
// outbound FIFO queues and their goroutines' failure cause.
type peer struct {
	rank  int
	conn  meshConn
	recvq *comm.Fifo[message]
	sendq *comm.Fifo[message]

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

// link is tcpnet's comm.Link: one framed TCP connection per peer, each
// with an inbound and an outbound FIFO and a reader and a writer goroutine.
type link struct {
	p, rank int
	timeout time.Duration
	peers   []*peer    // indexed by rank; peers[rank] == nil
	regMu   sync.Mutex // serializes mesh registration against Sever
	closed  atomic.Bool
	readers sync.WaitGroup
	writers sync.WaitGroup

	// ids maps every current rank to its stable generation-0 ID, which is
	// what chaos schedules name workers by. inj, when non-nil, injects this
	// worker's scheduled link faults: register wraps each mesh connection
	// in a chaosConn.
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
			l.peers[r] = &peer{rank: r, recvq: comm.NewFifo[message](), sendq: comm.NewFifo[message](),
				arena: sparse.NewArena()}
		}
	}
	return l
}

// idOf maps a current rank to its stable generation-0 ID.
func (l *link) idOf(rank int) int {
	if l.ids == nil {
		return rank
	}
	return l.ids[rank]
}

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
	tc := conn.(*net.TCPConn)
	tc.SetNoDelay(true)
	var mc meshConn = tc
	if l.inj != nil {
		mc = &chaosConn{meshConn: tc, inj: l.inj, peerID: l.idOf(rank), root: l.root}
	}
	pr.conn = mc
	return nil
}

// run starts the per-peer socket goroutines.
func (l *link) run() {
	for _, pr := range l.peers {
		if pr == nil {
			continue
		}
		l.readers.Add(1)
		l.writers.Add(1)
		go l.reader(pr)
		go l.writer(pr)
	}
}

// drain closes the outbound queues — the writers flush what is queued and
// half-close their streams, so peers receive every queued frame, then EOF
// — and waits, up to the timeout, for the writers and, when peers is set,
// for the readers too (each exits when its peer half-closes in turn). The
// returned channel closes once those goroutines have exited.
func (l *link) drain(peers bool) <-chan struct{} {
	for _, pr := range l.peers {
		if pr != nil {
			pr.sendq.Close()
		}
	}
	done := make(chan struct{})
	go func() {
		l.writers.Wait()
		if peers {
			l.readers.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(l.timeout):
	}
	return done
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
	// A scheduled crash drains first: every frame of completed iterations
	// goes out and the streams half-close, so peers see EOF only after all
	// the crasher's data, exactly what a killed process's kernel buffers
	// deliver — and no barrier token for the crash iteration is ever sent,
	// which pins every survivor's resume point at this iteration on every
	// substrate. The crash is noted before the drain: the EOFs make the
	// peers panic, and those panics must not be taken for the root cause.
	onCrash := func(iter int) {
		l.root.Fail(fmt.Sprintf("worker %d: %v", id, chaos.Crashed{ID: id, Iter: iter}), func() { l.drain(false) })
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

// writer drains the outbound queue onto the socket through a
// scatter/gather batch: frames accumulate while the sender is bursting and
// one vectored write moves header and payload slices kernel-ward with no
// intermediate copy, flushing whenever the queue momentarily empties (the
// latency-correct policy: batch while the sender bursts, write before
// blocking). Queue closure — Close's graceful path — flushes and
// half-closes the connection so the peer's reader sees EOF only after
// every queued frame; the final flush and CloseWrite errors surface
// through pr.fail rather than being dropped.
func (l *link) writer(pr *peer) {
	defer l.writers.Done()
	fw := newFrameWriter(pr.conn)
	fail := func(err error) {
		pr.fail(fmt.Sprintf("send to worker %d failed: %v", pr.rank, err))
		pr.sendq.Close()
		for { // release any queued buffers
			m, ok := pr.sendq.Pop()
			if !ok {
				return
			}
			if m.buf != nil {
				putBuf(m.buf)
			}
		}
	}
	for {
		m, ok := pr.sendq.TryPop()
		if !ok {
			if err := fw.flush(); err != nil {
				fail(err)
				return
			}
			if m, ok = pr.sendq.Pop(); !ok {
				// Graceful close. The batch is provably empty — flushed
				// above, and nothing was queued since — but a final flush
				// guards the invariant, and its error (and CloseWrite's)
				// goes through pr.fail instead of vanishing: a peer that
				// missed queued frames must find a cause, not a clean EOF.
				if err := fw.flush(); err != nil {
					fail(err)
					return
				}
				if err := pr.conn.CloseWrite(); err != nil {
					pr.fail(fmt.Sprintf("closing stream to worker %d: %v", pr.rank, err))
				}
				return
			}
		}
		fw.queue(m)
		if fw.frames >= writerBatchFrames || fw.bytes >= writerBatchBytes {
			if err := fw.flush(); err != nil {
				fail(err)
				return
			}
		}
	}
}

const (
	// frameHdrMax bounds one frame's header: kind byte plus two uvarints
	// (accounted size, payload length).
	frameHdrMax = 1 + 2*binary.MaxVarintLen64
	// writerBatchFrames / writerBatchBytes bound one scatter/gather batch:
	// enough frames to amortize the vectored-write syscall across a burst
	// of small messages, small enough to keep per-connection buffering flat
	// and the iovec list well under the kernel's limit.
	writerBatchFrames = 64
	writerBatchBytes  = 256 << 10
)

// frameWriter batches outbound frames into one scatter/gather write:
// queue appends each frame's header to a shared header strip and its
// payload by reference, and flush hands the whole net.Buffers vector to
// the TCP connection's WriteTo (writev on a *net.TCPConn) — the send
// path's zero-copy half: payload bytes move pooled-buffer→kernel with no
// bufio memcpy between.
type frameWriter struct {
	conn   io.Writer   // *net.TCPConn (writev) or a chaosConn wrapper
	batch  net.Buffers // scatter list for WriteTo; rebuilt every batch
	owned  [][]byte    // pooled payload buffers, released after the write
	hdrs   []byte      // header bytes of queued frames (batch subslices it)
	frames int
	bytes  int
}

func newFrameWriter(conn io.Writer) *frameWriter {
	return &frameWriter{
		conn:  conn,
		batch: make(net.Buffers, 0, 2*writerBatchFrames),
		owned: make([][]byte, 0, writerBatchFrames),
		hdrs:  make([]byte, 0, writerBatchFrames*frameHdrMax),
	}
}

// queue adds m to the current batch. The pooled payload buffer's ownership
// moves into fw.owned: it stays alive, unmodified, until flush's socket
// write has consumed it. The header strip is pre-sized for a full batch,
// so appends never reallocate and the subslices in fw.batch stay valid.
//
//spardl:hotpath
func (fw *frameWriter) queue(m message) {
	h := len(fw.hdrs)
	fw.hdrs = appendFrameHeader(fw.hdrs, m)
	fw.batch = append(fw.batch, fw.hdrs[h:len(fw.hdrs):len(fw.hdrs)])
	fw.bytes += len(fw.hdrs) - h
	if m.buf != nil {
		if len(m.buf) > 0 {
			fw.batch = append(fw.batch, m.buf)
			fw.bytes += len(m.buf)
		}
		fw.owned = append(fw.owned, m.buf)
	}
	fw.frames++
}

// flush writes the batch with one vectored write and releases the payload
// buffers it consumed. The batch is reset even on error: the writer fails
// the peer and drains, so the queued frames are dead either way.
//
//spardl:hotpath
func (fw *frameWriter) flush() error {
	if fw.frames == 0 {
		return nil
	}
	// WriteTo consumes (advances and re-slices) the vector it is handed,
	// so give it a copy of the slice header; the backing array is ours
	// and is rebuilt from scratch next batch.
	bufs := fw.batch
	_, err := bufs.WriteTo(fw.conn)
	for i := range fw.owned {
		putBuf(fw.owned[i])
		fw.owned[i] = nil
	}
	fw.owned = fw.owned[:0]
	fw.batch = fw.batch[:0]
	fw.hdrs = fw.hdrs[:0]
	fw.frames, fw.bytes = 0, 0
	return err
}

// appendFrameHeader appends m's wire header onto dst: the kind byte plus —
// for data frames — uvarint accounted and payload-length fields. It is the
// single encoder the frame writer and the round-trip fuzzer share.
//
//spardl:hotpath
func appendFrameHeader(dst []byte, m message) []byte {
	dst = append(dst, m.kind)
	if m.kind == frameData {
		dst = binary.AppendUvarint(dst, uint64(m.accounted))
		dst = binary.AppendUvarint(dst, uint64(len(m.buf)))
	}
	return dst
}

// readerStickyBytes sizes the frame reader's sticky buffer. It matches the
// kernel's default loopback read granularity so one syscall drains a whole
// burst of batched frames; payload bytes the buffer happens to hold are
// memcpy'd to their arena destination and only the tail past the buffer is
// read directly, so a larger buffer trades (cheap) copies for (expensive)
// syscalls without ever double-buffering more than one read's worth.
const readerStickyBytes = 64 << 10

// frameReader decodes the inbound frame stream: headers parse out of a
// small sticky buffer (one read covers many batched small frames), and
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
//
//spardl:hotpath
func (fr *frameReader) next() (message, error) {
	kind, err := fr.readByte()
	if err != nil {
		return message{}, err // io.EOF here is a graceful close
	}
	if kind != frameData {
		if kind != frameSync {
			return message{}, badFrameKind(kind) //spardl:hotprop-ok error formatting on the protocol-violation path that poisons the conn
		}
		return message{kind: kind}, nil
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
		return message{}, frameCapError(n) //spardl:hotprop-ok error formatting on the torn-frame path that poisons the conn
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
	return message{kind: kind, buf: buf, accounted: int(acc)}, nil
}

//spardl:hotpath
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

//spardl:hotpath
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
// construction off the annotated hot paths; all three feed the reader's
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

// Deliver implements comm.Link: the frame joins the peer's outbound queue
// and the writer goroutine moves it onto the socket, so it never blocks.
func (l *link) Deliver(to int, f comm.Frame) error {
	pr := l.peers[to]
	m := message{kind: frameData, buf: f.Buf, accounted: f.Accounted}
	if f.Token {
		m = message{kind: frameSync}
	}
	if !pr.sendq.Push(m) {
		return errors.New(pr.why())
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
	return comm.Frame{Buf: m.buf, Accounted: m.accounted, Token: m.kind == frameSync}, l.decodeArena, nil
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

// Close implements comm.Link: it drains every outbound stream, waits — up
// to the configured timeout — for peers to close their sides, and then
// tears the connections down. The wait is bounded because a wedged peer
// (stopped reading, socket buffer full) must not block Close; force-
// closing the connections errors any stuck write out. After Sever it is a
// no-op.
func (l *link) Close() {
	if !l.closed.CompareAndSwap(false, true) {
		return
	}
	done := l.drain(true)
	for _, pr := range l.peers {
		if pr != nil {
			pr.conn.Close()
			pr.recvq.Close()
		}
	}
	<-done
}

// Sever implements comm.Link: it poisons every peer — sockets close (so
// remote blocked Recvs unwind), local queues close (so local blocked Recvs
// unwind) — without waiting for any goroutine, so it is safe to call from
// the communication stream itself. Idempotent; the first recorded cause
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
			pr.sendq.Close()
			if pr.conn != nil {
				pr.conn.Close()
			}
		}
	})
}
