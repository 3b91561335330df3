package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"spardl/internal/sparse"
)

// Vec is the dense-vector payload of the all-reduce schedules. Unlike every
// other payload it has value semantics at Send on every fabric — F is
// serialized at the call on simnet (Detach) and on a big-endian host, and
// otherwise the link has written or copied F's own memory before Send
// returns — so the sender passes a window of its working vector and may
// overwrite it at once. Recv returns a view, not a slice: over an
// arena-backed link it aliases the frame's bytes (valid until the rotation
// after next, like any arena-decoded payload), otherwise it holds a pooled
// copy of them. A view is read exactly once, straight from those bytes, by
// one of its three consumers — AddTo (dst += v), SumTo (dst = a + v) or
// CopyTo (dst = v) — which also releases a pooled copy. On the wire it is
// tagFloat32s' framing under its own tag.
type Vec struct {
	F      []float32 // the elements to send; a received view has none
	wire   []byte    // a received view: the elements, little-endian
	pooled bool      // wire is a FrameBufs buffer the consumer returns
}

// vecFrameMax bounds a Vec's encoded size: tag, uvarint count, elements.
// Every FrameBufs buffer on the dense path is drawn at this size, so frames
// and view copies of one vector length recycle into each other.
func vecFrameMax(n int) int { return 1 + binary.MaxVarintLen64 + 4*n }

// vecZeroCopy says a float32's memory is its wire encoding — little-endian
// Float32bits, NaN payloads included — so Send can lend a Vec's elements to
// the link as they are (f32Bytes) instead of encoding them (putFloat32s),
// and CopyTo can move a view into place with one memmove instead of
// decoding it (loadFloat32s). Tests clear it to run the paths a big-endian
// host takes.
var vecZeroCopy = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// appendVecHeader appends a Vec's frame up to its first element: the tag and
// the uvarint count.
func appendVecHeader(dst []byte, n int) []byte {
	return binary.AppendUvarint(append(dst, tagVec), uint64(n))
}

// f32Bytes views f's memory as bytes. On a little-endian host (vecZeroCopy)
// they are exactly what putFloat32s would store.
func f32Bytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

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
func (v Vec) AddTo(dst []float32) { v.consume(vecAdd, dst, nil) }

// SumTo sets dst[i] = a[i] + v[i] in ascending i — the addition AddTo makes
// when dst holds a, without copying a into dst first — and releases the
// view. a may be dst itself (then it is AddTo); len(a) and len(dst) must be
// the view's.
func (v Vec) SumTo(dst, a []float32) { v.consume(vecSum, dst, a) }

// CopyTo overwrites dst with the view and releases it. len(dst) must be the
// view's.
func (v Vec) CopyTo(dst []float32) { v.consume(vecCopy, dst, nil) }

// vecOp names a view's consumer.
type vecOp uint8

const (
	vecAdd vecOp = iota
	vecSum
	vecCopy
)

func (v Vec) consume(op vecOp, dst, a []float32) {
	if len(v.wire) != 4*len(dst) {
		panic(fmt.Sprintf("comm: dense view of %d elements consumed into %d (schedule mismatch)", len(v.wire)/4, len(dst)))
	}
	switch op {
	case vecAdd:
		addFloat32s(dst, v.wire)
	case vecSum:
		if len(a) != len(dst) {
			panic(fmt.Sprintf("comm: dense view summed with %d elements into %d (schedule mismatch)", len(a), len(dst)))
		}
		sumFloat32s(dst, a, v.wire)
	case vecCopy:
		if vecZeroCopy {
			copy(f32Bytes(dst), v.wire) // the bytes are dst's memory image
		} else {
			loadFloat32s(dst, v.wire)
		}
	}
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

// The four loops below are the dense path's whole codec. Each hoists its
// bounds checks to one reslice per eight elements, which lets the compiler
// turn the encoding/binary calls into single moves.

// putFloat32s stores src little-endian into dst[:4*len(src)].
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

// sumFloat32s sets dst[i] to a[i] plus the i-th little-endian word of src.
// a may be dst itself.
func sumFloat32s(dst, a []float32, src []byte) {
	a, src = a[:len(dst)], src[:4*len(dst)]
	for len(dst) >= 8 {
		d, x, s := dst[:8], a[:8], src[:32]
		d[0] = x[0] + math.Float32frombits(binary.LittleEndian.Uint32(s[0:]))
		d[1] = x[1] + math.Float32frombits(binary.LittleEndian.Uint32(s[4:]))
		d[2] = x[2] + math.Float32frombits(binary.LittleEndian.Uint32(s[8:]))
		d[3] = x[3] + math.Float32frombits(binary.LittleEndian.Uint32(s[12:]))
		d[4] = x[4] + math.Float32frombits(binary.LittleEndian.Uint32(s[16:]))
		d[5] = x[5] + math.Float32frombits(binary.LittleEndian.Uint32(s[20:]))
		d[6] = x[6] + math.Float32frombits(binary.LittleEndian.Uint32(s[24:]))
		d[7] = x[7] + math.Float32frombits(binary.LittleEndian.Uint32(s[28:]))
		dst, a, src = dst[8:], a[8:], src[32:]
	}
	for i := range dst {
		dst[i] = a[i] + math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
