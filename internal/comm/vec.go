package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"spardl/internal/sparse"
)

// Vec is the dense-vector payload of the all-reduce schedules. Unlike every
// other payload it has value semantics at Send on every fabric — F is
// serialized at the call, on simnet too (Detach) — so the sender passes a
// window of its working vector and may overwrite it at once. Recv returns a
// view, not a slice: over an arena-backed link it aliases the frame's bytes
// (valid until the rotation after next, like any arena-decoded payload),
// otherwise it holds a pooled copy of them. A view is read exactly once, by
// AddTo or CopyTo, straight from those bytes; that also releases a pooled
// copy. On the wire it is tagFloat32s' framing under its own tag.
type Vec struct {
	F      []float32 // the elements to send; a received view has none
	wire   []byte    // a received view: the elements, little-endian
	pooled bool      // wire is a FrameBufs buffer the consumer returns
}

// vecFrameMax bounds a Vec's encoded size: tag, uvarint count, elements.
// Every FrameBufs buffer on the dense path is drawn at this size, so frames
// and view copies of one vector length recycle into each other.
func vecFrameMax(n int) int { return 1 + binary.MaxVarintLen64 + 4*n }

// readVec returns the view of a decoded body: the bytes themselves when an
// arena owns them, a pooled copy when the caller will recycle the frame.
func readVec(a *sparse.Arena, wire []byte) Vec {
	if a != nil {
		return Vec{wire: wire}
	}
	own := FrameBufs.Get(vecFrameMax(len(wire) / 4))[:len(wire)]
	copy(own, wire)
	return Vec{wire: own, pooled: true}
}

// Detach serializes F into a pooled view: what Send hands over in v's place
// on a fabric that otherwise passes payloads by reference (simnet).
func (v Vec) Detach() Vec {
	own := FrameBufs.Get(vecFrameMax(len(v.F)))[:4*len(v.F)]
	putFloat32s(own, v.F)
	return Vec{wire: own, pooled: true}
}

// AddTo accumulates the view into dst — dst[i] += v[i] in ascending i, one
// addition per element — and releases it. len(dst) must be the view's.
func (v Vec) AddTo(dst []float32) { v.consume(dst, addFloat32s) }

// CopyTo overwrites dst with the view and releases it. len(dst) must be the
// view's.
func (v Vec) CopyTo(dst []float32) { v.consume(dst, loadFloat32s) }

func (v Vec) consume(dst []float32, read func(dst []float32, wire []byte)) {
	if len(v.wire) != 4*len(dst) {
		panic(fmt.Sprintf("comm: dense view of %d elements consumed into %d (schedule mismatch)", len(v.wire)/4, len(dst)))
	}
	read(dst, v.wire)
	if v.pooled {
		FrameBufs.Put(v.wire)
	}
}

// appendFloat32s appends a dense vector's body — uvarint count, then the
// elements little-endian — growing dst at most once.
func appendFloat32s(dst []byte, src []float32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	at := len(dst)
	dst = slices.Grow(dst, 4*len(src))[:at+4*len(src)]
	putFloat32s(dst[at:], src)
	return dst
}

// The three loops below are the dense path's whole codec. Each hoists its
// bounds checks to one reslice per eight elements, which lets the compiler
// turn the encoding/binary calls into single moves.

// putFloat32s stores src little-endian into dst[:4*len(src)].
//
//spardl:hotpath
func putFloat32s(dst []byte, src []float32) {
	dst = dst[:4*len(src)]
	for len(src) >= 8 {
		d, s := dst[:32], src[:8]
		binary.LittleEndian.PutUint32(d[0:], math.Float32bits(s[0]))
		binary.LittleEndian.PutUint32(d[4:], math.Float32bits(s[1]))
		binary.LittleEndian.PutUint32(d[8:], math.Float32bits(s[2]))
		binary.LittleEndian.PutUint32(d[12:], math.Float32bits(s[3]))
		binary.LittleEndian.PutUint32(d[16:], math.Float32bits(s[4]))
		binary.LittleEndian.PutUint32(d[20:], math.Float32bits(s[5]))
		binary.LittleEndian.PutUint32(d[24:], math.Float32bits(s[6]))
		binary.LittleEndian.PutUint32(d[28:], math.Float32bits(s[7]))
		dst, src = dst[32:], src[8:]
	}
	for i, f := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(f))
	}
}

// loadFloat32s sets dst[i] to the i-th little-endian word of src.
//
//spardl:hotpath
func loadFloat32s(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	for len(dst) >= 8 {
		d, s := dst[:8], src[:32]
		d[0] = math.Float32frombits(binary.LittleEndian.Uint32(s[0:]))
		d[1] = math.Float32frombits(binary.LittleEndian.Uint32(s[4:]))
		d[2] = math.Float32frombits(binary.LittleEndian.Uint32(s[8:]))
		d[3] = math.Float32frombits(binary.LittleEndian.Uint32(s[12:]))
		d[4] = math.Float32frombits(binary.LittleEndian.Uint32(s[16:]))
		d[5] = math.Float32frombits(binary.LittleEndian.Uint32(s[20:]))
		d[6] = math.Float32frombits(binary.LittleEndian.Uint32(s[24:]))
		d[7] = math.Float32frombits(binary.LittleEndian.Uint32(s[28:]))
		dst, src = dst[8:], src[32:]
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// addFloat32s adds the i-th little-endian word of src to dst[i].
//
//spardl:hotpath
func addFloat32s(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	for len(dst) >= 8 {
		d, s := dst[:8], src[:32]
		d[0] += math.Float32frombits(binary.LittleEndian.Uint32(s[0:]))
		d[1] += math.Float32frombits(binary.LittleEndian.Uint32(s[4:]))
		d[2] += math.Float32frombits(binary.LittleEndian.Uint32(s[8:]))
		d[3] += math.Float32frombits(binary.LittleEndian.Uint32(s[12:]))
		d[4] += math.Float32frombits(binary.LittleEndian.Uint32(s[16:]))
		d[5] += math.Float32frombits(binary.LittleEndian.Uint32(s[20:]))
		d[6] += math.Float32frombits(binary.LittleEndian.Uint32(s[24:]))
		d[7] += math.Float32frombits(binary.LittleEndian.Uint32(s[28:]))
		dst, src = dst[8:], src[32:]
	}
	for i := range dst {
		dst[i] += math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
