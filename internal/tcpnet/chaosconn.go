package tcpnet

import (
	"errors"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
)

// chaosConn wraps one mesh connection's write side with the worker's fault
// injector. A streaming parser mirrors the frame reader's state machine
// over the outbound byte stream, so every frame — data and barrier tokens
// alike — receives exactly one Outbound verdict at the ordinal the receiver
// will observe, no matter how the stream is chunked into Write calls
// (net.Buffers degrades from writev to one Write per slice on a
// non-TCPConn writer, so Deliver's header, Buf and Tail arrive
// separately). A delay sleeps the sending goroutine before the frame's
// first byte reaches the kernel, as livenet's does; corruption sends a
// copy of the payload bytes chaos.CorruptBytes flips, never the caller's;
// a drop or partition severs the connection at the frame boundary, so the
// receiver observes a torn stream exactly where the schedule says.
type chaosConn struct {
	meshConn
	inj    chaos.Injector
	peerID int         // receiver's stable generation-0 ID
	root   *comm.Cause // the link's root-cause record

	st      chaosState
	act     chaos.Action // verdict for the frame being passed through
	val     uint64       // uvarint accumulator
	shift   uint
	payLen  int
	payOff  int
	severed error
}

type chaosState int

const (
	chaosKind    chaosState = iota // next byte starts a frame
	chaosAcc                       // inside the accounted-size uvarint
	chaosLen                       // inside the payload-length uvarint
	chaosPayload                   // passing payload bytes through
)

// Write implements io.Writer over the underlying connection, running the
// frame parser over p. It never mutates p: p may be the sender's own
// vector (a frame's borrowed Tail), so corrupted bytes go out from a copy.
func (c *chaosConn) Write(p []byte) (int, error) {
	if c.severed != nil {
		return 0, c.severed
	}
	flushed := 0 // prefix of p already handed to the underlying conn
	for i := 0; i < len(p); {
		switch c.st {
		case chaosKind:
			kind := p[i]
			c.act = c.inj.Outbound(c.peerID)
			if c.act.Delay > 0 {
				if err := c.flushTo(p, &flushed, i); err != nil {
					return flushed, err
				}
				time.Sleep(c.act.Delay)
			}
			if c.act.Drop || (c.act.Corrupt && kind != frameData) {
				// Dropping a frame from a stream transport, or corrupting a
				// bare barrier token (nothing but its header to flip), both
				// tear the stream: sever before the frame's first byte.
				if err := c.flushTo(p, &flushed, i); err != nil {
					return flushed, err
				}
				return flushed, c.sever()
			}
			i++
			if kind == frameData {
				c.st, c.val, c.shift = chaosAcc, 0, 0
			}
		case chaosAcc:
			b := p[i]
			i++
			if b < 0x80 {
				c.st, c.val, c.shift = chaosLen, 0, 0
			}
		case chaosLen:
			b := p[i]
			i++
			c.val |= uint64(b&0x7f) << c.shift
			c.shift += 7
			if b < 0x80 {
				if c.val == 0 {
					if c.act.Corrupt {
						// An empty payload leaves nothing to flip; like
						// livenet, corrupting it degrades to link death.
						if err := c.flushTo(p, &flushed, i); err != nil {
							return flushed, err
						}
						return flushed, c.sever()
					}
					c.st = chaosKind
				} else {
					c.payLen, c.payOff = int(c.val), 0
					c.st = chaosPayload
				}
			}
		case chaosPayload:
			span := len(p) - i
			if rest := c.payLen - c.payOff; span > rest {
				span = rest
			}
			if bad := c.corrupted(p[i : i+span]); bad != nil {
				if err := c.flushTo(p, &flushed, i); err != nil {
					return flushed, err
				}
				sent := 0
				if err := c.flushTo(bad, &sent, span); err != nil {
					return flushed, err
				}
				flushed = i + span
			}
			i += span
			c.payOff += span
			if c.payOff == c.payLen {
				c.st = chaosKind
			}
		}
	}
	if err := c.flushTo(p, &flushed, len(p)); err != nil {
		return flushed, err
	}
	return len(p), nil
}

// corrupted returns span — payload offsets [payOff, payOff+len(span)) —
// copied with the chaos.CorruptBytes mutation applied (payload byte 0
// flipped with 0xFF, byte payLen/2 with 0xA5), or nil when the frame is not
// to be corrupted or neither offset falls inside the span.
func (c *chaosConn) corrupted(span []byte) []byte {
	if !c.act.Corrupt {
		return nil
	}
	var bad []byte
	for _, t := range [2]struct {
		off  int
		mask byte
	}{{0, 0xFF}, {c.payLen / 2, 0xA5}} {
		if t.off >= c.payOff && t.off < c.payOff+len(span) {
			if bad == nil {
				bad = append([]byte(nil), span...)
			}
			bad[t.off-c.payOff] ^= t.mask
		}
	}
	return bad
}

// flushTo writes p[*flushed:end] through the underlying connection.
func (c *chaosConn) flushTo(p []byte, flushed *int, end int) error {
	for *flushed < end {
		n, err := c.meshConn.Write(p[*flushed:end])
		*flushed += n
		if err != nil {
			return err
		}
	}
	return nil
}

// sever kills the connection at the scheduled fault and remembers the named
// cause: Deliver records it on the peer, and the link's root
// keeps it so an elastic driver reports the schedule entry — not one of the
// cascade failures the dead socket provokes — as the root cause. Closing
// the full connection (not just the write side) makes the sever symmetric,
// like livenet's poisoned queue pair.
func (c *chaosConn) sever() error {
	c.severed = errors.New(c.act.Fault.Severed())
	c.root.Fail(c.severed.Error(), func() { c.meshConn.Close() })
	return c.severed
}
