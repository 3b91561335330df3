package tcpnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"spardl/internal/comm"
)

// heapAlloc stands in for the arena-backed allocator when fuzzing the
// frame reader in isolation.
func heapAlloc(n int) []byte { return make([]byte, n) }

// FuzzFrame drives the framing layer from both ends. The first interface
// is the round trip — whatever appendFrameHeader encodes, frameReader must
// decode back bit-identically. The second is the adversarial stream: raw
// fuzz bytes fed straight into the reader must produce frames or errors,
// never a panic and never an over-read past the bytes the stream holds.
// Both decode every stream twice, from a reader that returns all it has
// and from one that returns a byte per call, and must get the same frames:
// how much of a payload the sticky buffer stages is the reader's business.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint32(0), true)
	f.Add([]byte("hello"), uint16(1234), uint32(1), true)
	f.Add(bytes.Repeat([]byte{0xab}, 70000), uint16(9), uint32(300), true) // spans the sticky buffer; a two-byte epoch
	for _, n := range []int{readerStickyBytes - 1, readerStickyBytes, readerStickyBytes + 1, 4 * readerStickyBytes} {
		f.Add(bytes.Repeat([]byte{0xcd}, n), uint16(n), uint32(n), true) // a payload around and past the buffer
	}
	f.Add(burstThenLarge(), uint16(0), uint32(0), false)
	f.Add([]byte{frameSync}, uint16(0), uint32(0), false)
	f.Add([]byte{frameData, 0x02, 0x05, 0x03, 'a', 'b', 'c'}, uint16(0), uint32(0), false)
	f.Add([]byte{frameData, 0x00, 0x01}, uint16(0), uint32(0), false)                               // torn header
	f.Add([]byte{frameData, 0x00, 0x01, 0x80, 0x80, 0x80, 0x80, 0x40}, uint16(0), uint32(0), false) // over-cap length
	f.Add([]byte{0x7f}, uint16(0), uint32(0), false)                                                // unknown kind

	f.Fuzz(func(t *testing.T, body []byte, accounted uint16, epoch uint32, roundTrip bool) {
		if roundTrip {
			fuzzRoundTrip(t, body, int(accounted), int(epoch))
			return
		}
		fuzzAdversarial(t, body)
	})
}

// fuzzRoundTrip encodes a data frame followed by a sync frame and checks
// both survive the reader byte-for-byte, the epoch stamp included. The body
// is split between the frame's Buf and Tail at a point the fuzzer picks, as
// Deliver writes a dense payload. The trailing sync frame proves the reader
// consumed exactly the data frame — an over-read would eat the sync byte
// and misparse.
func fuzzRoundTrip(t *testing.T, body []byte, accounted, epoch int) {
	cut := accounted % (len(body) + 1)
	wire := appendFrameHeader(nil, comm.Frame{Buf: body[:cut], Tail: body[cut:], Accounted: accounted, Epoch: epoch})
	wire = append(wire, body...)
	wire = appendFrameHeader(wire, comm.Frame{Token: true})

	for _, chunked := range []bool{false, true} {
		frames, err := decodeStream(wire, chunked)
		if err != io.EOF {
			t.Fatalf("chunked=%v: want io.EOF at the clean end of stream, got %v", chunked, err)
		}
		if len(frames) != 2 {
			t.Fatalf("chunked=%v: decoded %d frames, want a data and a sync frame", chunked, len(frames))
		}
		out, sync := frames[0], frames[1]
		if out.kind != frameData || out.accounted != accounted || out.epoch != epoch || !bytes.Equal(out.buf, body) {
			t.Fatalf("chunked=%v: round trip mismatch: kind=%d accounted=%d epoch=%d len=%d, want kind=%d accounted=%d epoch=%d len=%d",
				chunked, out.kind, out.accounted, out.epoch, len(out.buf), frameData, accounted, epoch, len(body))
		}
		if sync.kind != frameSync {
			t.Fatalf("chunked=%v: trailing frame kind=%d (reader over- or under-read the data frame)", chunked, sync.kind)
		}
	}
}

// fuzzAdversarial feeds arbitrary bytes to the reader until it errors or
// the stream is exhausted, checking the error taxonomy the poison path
// depends on: clean EOF only at frame boundaries, torn frames as
// ErrUnexpectedEOF, garbage lengths rejected before allocation. A reader
// returning one byte per call must see the same frames and the same end.
func fuzzAdversarial(t *testing.T, stream []byte) {
	frames, err := decodeStream(stream, false)
	for _, m := range frames {
		if m.kind == frameData {
			if uint64(len(m.buf)) > maxFrameBytes {
				t.Fatalf("reader produced a %d-byte frame past the %d cap", len(m.buf), maxFrameBytes)
			}
			if len(m.buf) > len(stream) {
				t.Fatalf("reader produced a %d-byte payload from a %d-byte stream (over-read)", len(m.buf), len(stream))
			}
		}
	}
	// Any error may end the stream: io.EOF at a frame boundary,
	// ErrUnexpectedEOF, a malformed varint, an unknown kind or an over-cap
	// length (the last two refused before allocating the payload).
	chunked, chunkedErr := decodeStream(stream, true)
	if fmt.Sprint(chunkedErr) != fmt.Sprint(err) || len(chunked) != len(frames) {
		t.Fatalf("one byte per read: %d frames ending in %v; whole reads: %d frames ending in %v",
			len(chunked), chunkedErr, len(frames), err)
	}
	for i, m := range frames {
		if c := chunked[i]; c.kind != m.kind || c.accounted != m.accounted || c.epoch != m.epoch || !bytes.Equal(c.buf, m.buf) {
			t.Fatalf("frame %d differs between one-byte and whole reads", i)
		}
	}
}

// decodeStream reads frames from stream until the reader errors, from a
// source that returns everything it has per read or, chunked, one byte.
func decodeStream(stream []byte, chunked bool) ([]message, error) {
	var src io.Reader = bytes.NewReader(stream)
	if chunked {
		src = iotest.OneByteReader(src)
	}
	fr := newFrameReader(src, heapAlloc)
	var frames []message
	for {
		m, err := fr.next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, m)
	}
}

// burstThenLarge is the stream a SparDL sync followed by a dense frame
// sends one peer: a burst of short data frames and barrier tokens that
// one read of the sticky buffer drains, then a payload four buffers long
// whose first bytes arrive in the same read.
func burstThenLarge() []byte {
	var wire []byte
	for i := 0; i < 40; i++ {
		body := bytes.Repeat([]byte{byte(i)}, 7*i)
		wire = appendFrameHeader(wire, comm.Frame{Buf: body, Accounted: i, Epoch: i / 8})
		wire = append(wire, body...)
		if i%8 == 7 {
			wire = appendFrameHeader(wire, comm.Frame{Token: true})
		}
	}
	large := bytes.Repeat([]byte{0xef}, 4*readerStickyBytes)
	wire = appendFrameHeader(wire, comm.Frame{Buf: large[:9], Tail: large[9:], Accounted: len(large), Epoch: 5})
	return append(wire, large...)
}

// TestFrameReaderBurstThenLarge decodes burstThenLarge exactly, from whole
// and from one-byte reads: every short frame, every token and the large
// payload, which the sticky buffer stages only in part.
func TestFrameReaderBurstThenLarge(t *testing.T) {
	for _, chunked := range []bool{false, true} {
		frames, err := decodeStream(burstThenLarge(), chunked)
		if err != io.EOF {
			t.Fatalf("chunked=%v: stream ended in %v, want io.EOF", chunked, err)
		}
		if len(frames) != 40+5+1 {
			t.Fatalf("chunked=%v: decoded %d frames, want 40 short, 5 tokens and 1 large", chunked, len(frames))
		}
		i := 0
		for n := 0; n < 40; n++ {
			if m := frames[i]; m.kind != frameData || m.accounted != n || m.epoch != n/8 || !bytes.Equal(m.buf, bytes.Repeat([]byte{byte(n)}, 7*n)) {
				t.Fatalf("chunked=%v: short frame %d decoded as kind=%d accounted=%d epoch=%d len=%d", chunked, n, m.kind, m.accounted, m.epoch, len(m.buf))
			}
			i++
			if n%8 == 7 {
				if frames[i].kind != frameSync {
					t.Fatalf("chunked=%v: token after short frame %d decoded as kind=%d", chunked, n, frames[i].kind)
				}
				i++
			}
		}
		if last := frames[i]; last.accounted != 4*readerStickyBytes || last.epoch != 5 || !bytes.Equal(last.buf, bytes.Repeat([]byte{0xef}, 4*readerStickyBytes)) {
			t.Fatalf("chunked=%v: the large frame decoded as accounted=%d epoch=%d len=%d", chunked, last.accounted, last.epoch, len(last.buf))
		}
	}
}

// TestFrameCapRejectedBeforeAllocation pins the cap check's ordering: a
// frame announcing an absurd length must error out of the reader without
// the allocator ever being consulted.
func TestFrameCapRejectedBeforeAllocation(t *testing.T) {
	var hdr []byte
	hdr = append(hdr, frameData)
	hdr = binary.AppendUvarint(hdr, 0)
	hdr = binary.AppendUvarint(hdr, 1)
	hdr = binary.AppendUvarint(hdr, uint64(maxFrameBytes)+1)
	allocated := false
	fr := newFrameReader(bytes.NewReader(hdr), func(n int) []byte {
		allocated = true
		return make([]byte, n)
	})
	if _, err := fr.next(); err == nil {
		t.Fatal("over-cap frame length accepted")
	}
	if allocated {
		t.Fatal("allocator consulted before the cap check")
	}
}

// TestTornFrameIsUnexpectedEOF pins the crash-vs-disconnect distinction: a
// stream ending inside a frame is a torn frame, never a clean EOF.
func TestTornFrameIsUnexpectedEOF(t *testing.T) {
	full := appendFrameHeader(nil, comm.Frame{Buf: []byte("abcdef"), Accounted: 3, Epoch: 200})
	full = append(full, "abcdef"...)
	for cut := 1; cut < len(full); cut++ {
		fr := newFrameReader(bytes.NewReader(full[:cut]), heapAlloc)
		if _, err := fr.next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut=%d: want io.ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}
