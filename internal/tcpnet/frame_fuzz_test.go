package tcpnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

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
func FuzzFrame(f *testing.F) {
	f.Add([]byte{}, uint16(0), true)
	f.Add([]byte("hello"), uint16(1234), true)
	f.Add(bytes.Repeat([]byte{0xab}, 70000), uint16(9), true) // spans the sticky buffer
	f.Add([]byte{frameSync}, uint16(0), false)
	f.Add([]byte{frameData, 0x05, 0x03, 'a', 'b', 'c'}, uint16(0), false)
	f.Add([]byte{frameData, 0x01}, uint16(0), false)                               // torn header
	f.Add([]byte{frameData, 0x01, 0x80, 0x80, 0x80, 0x80, 0x40}, uint16(0), false) // over-cap length
	f.Add([]byte{0x7f}, uint16(0), false)                                          // unknown kind

	f.Fuzz(func(t *testing.T, body []byte, accounted uint16, roundTrip bool) {
		if roundTrip {
			fuzzRoundTrip(t, body, int(accounted))
			return
		}
		fuzzAdversarial(t, body)
	})
}

// fuzzRoundTrip encodes a data frame followed by a sync frame and checks
// both survive the reader byte-for-byte. The body is split between the
// frame's Buf and Tail at a point the fuzzer picks, as Deliver writes a
// dense payload. The trailing sync frame proves the reader consumed
// exactly the data frame — an over-read would eat the sync byte and
// misparse.
func fuzzRoundTrip(t *testing.T, body []byte, accounted int) {
	cut := accounted % (len(body) + 1)
	wire := appendFrameHeader(nil, comm.Frame{Buf: body[:cut], Tail: body[cut:], Accounted: accounted})
	wire = append(wire, body...)
	wire = appendFrameHeader(wire, comm.Frame{Token: true})

	fr := newFrameReader(bytes.NewReader(wire), heapAlloc)
	out, err := fr.next()
	if err != nil {
		t.Fatalf("decoding a well-formed frame: %v", err)
	}
	if out.kind != frameData || out.accounted != accounted || !bytes.Equal(out.buf, body) {
		t.Fatalf("round trip mismatch: kind=%d accounted=%d len=%d, want kind=%d accounted=%d len=%d",
			out.kind, out.accounted, len(out.buf), frameData, accounted, len(body))
	}
	sync, err := fr.next()
	if err != nil || sync.kind != frameSync {
		t.Fatalf("trailing sync frame: kind=%d err=%v (reader over- or under-read the data frame)", sync.kind, err)
	}
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("want io.EOF at the clean end of stream, got %v", err)
	}
}

// fuzzAdversarial feeds arbitrary bytes to the reader until it errors or
// the stream is exhausted, checking the error taxonomy the poison path
// depends on: clean EOF only at frame boundaries, torn frames as
// ErrUnexpectedEOF, garbage lengths rejected before allocation.
func fuzzAdversarial(t *testing.T, stream []byte) {
	fr := newFrameReader(bytes.NewReader(stream), heapAlloc)
	for {
		m, err := fr.next()
		if err == io.EOF {
			return // clean close at a frame boundary
		}
		if err != nil {
			if err == io.ErrUnexpectedEOF || err == errMalformedVarint {
				return
			}
			// Remaining legal errors: unknown kind, over-cap length. Both
			// must have refused before allocating the payload.
			return
		}
		if m.kind == frameData {
			if uint64(len(m.buf)) > maxFrameBytes {
				t.Fatalf("reader produced a %d-byte frame past the %d cap", len(m.buf), maxFrameBytes)
			}
			if len(m.buf) > len(stream) {
				t.Fatalf("reader produced a %d-byte payload from a %d-byte stream (over-read)", len(m.buf), len(stream))
			}
		}
	}
}

// TestFrameCapRejectedBeforeAllocation pins the cap check's ordering: a
// frame announcing an absurd length must error out of the reader without
// the allocator ever being consulted.
func TestFrameCapRejectedBeforeAllocation(t *testing.T) {
	var hdr []byte
	hdr = append(hdr, frameData)
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
	full := appendFrameHeader(nil, comm.Frame{Buf: []byte("abcdef"), Accounted: 3})
	full = append(full, "abcdef"...)
	for cut := 1; cut < len(full); cut++ {
		fr := newFrameReader(bytes.NewReader(full[:cut]), heapAlloc)
		if _, err := fr.next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut=%d: want io.ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}
