// Package wire implements binary codecs for sparse gradient messages. The
// α-β accounting throughout this repository charges 8 bytes per COO entry
// (int32 index + float32 value, the paper's "2k" wire elements); this
// package makes that size concrete with a real encoder, and provides three
// denser encodings a production deployment would negotiate per message:
//
//   - COO: 4-byte index + 4-byte value per entry (the accounting baseline);
//   - Delta: varint-encoded index gaps + 4-byte values, smaller whenever
//     indices are locally dense (sorted indices make gaps small);
//   - Bitmap: one bit per vector position + packed values, smaller than COO
//     once density exceeds ~1/64;
//   - Dense: raw packed values for a fully-covered [lo, hi) range — the
//     terminal point of the density spectrum, reached when reduce-scatter
//     fan-in has densified a stream into a contiguous block.
//
// Encode picks the smallest representation and self-describes with a one-
// byte tag, which is exactly the "switch to dense transmission" trick
// TopkDSA applies at block granularity (Section I-B), generalized.
//
// Every encoding carries the caller's [lo, hi) index range in the header:
// delta gaps are relative to lo, the bitmap and dense block span exactly
// [lo, hi), so decoding is self-contained and a decoded message can be
// attributed to its gradient block without out-of-band context. Header
// fields are varint-packed (format byte + count + lo + span), so small
// messages pay 4-6 header bytes instead of a fixed 13.
//
// Codecs preserve *entry sets* exactly: a chunk decodes to the same
// (index, value) entries it encoded, including explicit zeros (a dense
// block's zero positions are entries). The in-memory representation after
// a round trip is determined by the chosen format — FormatDense decodes
// into arena dense-block storage, the other three into COO — which is
// itself a pure function of the entry set, so reference-passing and
// byte-copying transports stay bit-identical.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"spardl/internal/sparse"
)

// Format tags the encoding of a message.
type Format byte

// Message formats.
const (
	FormatCOO    Format = 1
	FormatDelta  Format = 2
	FormatBitmap Format = 3
	FormatDense  Format = 4
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatCOO:
		return "coo"
	case FormatDelta:
		return "delta"
	case FormatBitmap:
		return "bitmap"
	case FormatDense:
		return "dense"
	}
	return fmt.Sprintf("Format(%d)", byte(f))
}

// HeaderLen returns the encoded header size for a message with the given
// entry count over [lo, hi): one format byte plus varint count, varint lo
// and varint span. Every format shares this layout, so the four sizing
// functions stay interchangeable.
func HeaderLen(count int, lo, hi int32) int {
	return 1 + uvarintLen(uint64(count)) + uvarintLen(uint64(uint32(lo))) + uvarintLen(uint64(uint32(hi-lo)))
}

// appendHeader appends the message header to dst.
func appendHeader(dst []byte, f Format, count int, lo, hi int32) []byte {
	dst = append(dst, byte(f))
	dst = binary.AppendUvarint(dst, uint64(count))
	dst = binary.AppendUvarint(dst, uint64(uint32(lo)))
	dst = binary.AppendUvarint(dst, uint64(uint32(hi-lo)))
	return dst
}

// parseHeader decodes the message header, returning the remaining body.
func parseHeader(buf []byte) (f Format, count int, lo, hi int32, body []byte, err error) {
	if len(buf) < 4 {
		return 0, 0, 0, 0, nil, fmt.Errorf("wire: truncated header (%d bytes)", len(buf))
	}
	f = Format(buf[0])
	rest := buf[1:]
	countU, n := binary.Uvarint(rest)
	if n <= 0 || countU > math.MaxInt32 {
		return 0, 0, 0, 0, nil, fmt.Errorf("wire: bad entry-count varint")
	}
	rest = rest[n:]
	loU, n := binary.Uvarint(rest)
	if n <= 0 || loU > math.MaxInt32 {
		return 0, 0, 0, 0, nil, fmt.Errorf("wire: bad range-lo varint")
	}
	rest = rest[n:]
	spanU, n := binary.Uvarint(rest)
	if n <= 0 || loU+spanU > math.MaxInt32 {
		return 0, 0, 0, 0, nil, fmt.Errorf("wire: bad range-span varint")
	}
	rest = rest[n:]
	return f, int(countU), int32(loU), int32(loU + spanU), rest, nil
}

// COOBytes returns the encoded size of a chunk with the given entry count
// in COO format over [lo, hi).
func COOBytes(entries int, lo, hi int32) int { return HeaderLen(entries, lo, hi) + 8*entries }

// DeltaBytes returns the encoded size of the chunk in delta format with
// index gaps relative to lo, without materializing the buffer.
func DeltaBytes(c *sparse.Chunk, lo, hi int32) int {
	n := HeaderLen(c.Len(), lo, hi) + 4*c.Len()
	prev := lo
	for i := 0; i < c.Len(); i++ {
		idx := c.IdxAt(i)
		n += uvarintLen(uint64(idx - prev))
		prev = idx
	}
	return n
}

// BitmapBytes returns the encoded size of a chunk with the given entry
// count over [lo, hi).
func BitmapBytes(entries int, lo, hi int32) int {
	return HeaderLen(entries, lo, hi) + (int(hi-lo)+7)/8 + 4*entries
}

// DenseBytes returns the encoded size of a dense block over [lo, hi):
// header plus 4 raw bytes per position.
func DenseBytes(lo, hi int32) int {
	span := int(hi - lo)
	return HeaderLen(span, lo, hi) + 4*span
}

// uvarintLen is the number of bytes binary.PutUvarint would write.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Range returns the tightest [lo, hi) interval containing the chunk's
// indices: [IdxAt(0), IdxAt(last)+1), or [0, 0) for an empty chunk.
func Range(c *sparse.Chunk) (lo, hi int32) {
	if c.Len() == 0 {
		return 0, 0
	}
	return c.IdxAt(0), c.IdxAt(c.Len()-1) + 1
}

// AppendCOO appends the chunk as index/value pairs over [lo, hi) to dst
// and returns the extended buffer (a nil dst allocates).
func AppendCOO(dst []byte, c *sparse.Chunk, lo, hi int32) []byte {
	mustRange(c, lo, hi)
	n := c.Len()
	dst = appendHeader(dst, FormatCOO, n, lo, hi)
	base := len(dst)
	dst = appendZeros(dst, 8*n)
	buf := dst[base:]
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[8*i:], uint32(c.IdxAt(i)))
		binary.LittleEndian.PutUint32(buf[8*i+4:], math.Float32bits(c.Val[i]))
	}
	return dst
}

// appendZeros extends dst by n zero bytes (reusing capacity when present).
func appendZeros(dst []byte, n int) []byte {
	dst = slices.Grow(dst, n)
	head := len(dst)
	dst = dst[:head+n]
	clear(dst[head:])
	return dst
}

// AppendDelta appends sorted indices as varint gaps (relative to lo) plus
// packed values to dst.
func AppendDelta(dst []byte, c *sparse.Chunk, lo, hi int32) []byte {
	mustRange(c, lo, hi)
	dst = appendHeader(dst, FormatDelta, c.Len(), lo, hi)
	prev := lo
	var tmp [binary.MaxVarintLen32]byte
	for i := 0; i < c.Len(); i++ {
		idx := c.IdxAt(i)
		n := binary.PutUvarint(tmp[:], uint64(idx-prev))
		dst = append(dst, tmp[:n]...)
		prev = idx
	}
	for _, v := range c.Val {
		var vb [4]byte
		binary.LittleEndian.PutUint32(vb[:], math.Float32bits(v))
		dst = append(dst, vb[:]...)
	}
	return dst
}

// AppendBitmap appends presence bits over [lo, hi) plus packed values to
// dst.
func AppendBitmap(dst []byte, c *sparse.Chunk, lo, hi int32) []byte {
	mustRange(c, lo, hi)
	span := int(hi - lo)
	n := c.Len()
	dst = appendHeader(dst, FormatBitmap, n, lo, hi)
	base := len(dst)
	dst = appendZeros(dst, (span+7)/8+4*n)
	buf := dst[base:]
	bits := buf[:(span+7)/8]
	off := (span + 7) / 8
	for i := 0; i < n; i++ {
		rel := int(c.IdxAt(i) - lo)
		bits[rel/8] |= 1 << (rel % 8)
		binary.LittleEndian.PutUint32(buf[off+4*i:], math.Float32bits(c.Val[i]))
	}
	return dst
}

// AppendDense appends the dense-block encoding to dst. The chunk must
// cover every position of [lo, hi) — in either representation, entry i is
// then the value at lo+i, so Val streams out as one raw block.
func AppendDense(dst []byte, c *sparse.Chunk, lo, hi int32) []byte {
	mustRange(c, lo, hi)
	span := int(hi - lo)
	if c.Len() != span {
		panic(fmt.Sprintf("wire: dense format needs full cover: %d entries over span %d", c.Len(), span))
	}
	dst = appendHeader(dst, FormatDense, span, lo, hi)
	base := len(dst)
	dst = appendZeros(dst, 4*span)
	buf := dst[base:]
	for i, v := range c.Val {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return dst
}

// EncodedBytes returns the size and format Encode would pick for a chunk
// over [lo, hi), without allocating any buffer. A chunk covering every
// position of the range takes FormatDense — at full cover the raw block
// (4 bytes/entry) is strictly smaller than bitmap (4⅛), delta (~5) and
// COO (8), so the smallest-of-four decision short-circuits. Otherwise the
// preference on size ties is delta, then COO, then bitmap, matching
// Encode exactly. The choice depends only on the chunk's entry set, never
// its in-memory representation.
func EncodedBytes(c *sparse.Chunk, lo, hi int32) (int, Format) {
	mustRange(c, lo, hi)
	if n := c.Len(); n > 0 && n == int(hi-lo) {
		return DenseBytes(lo, hi), FormatDense
	}
	best, fmtBest := DeltaBytes(c, lo, hi), FormatDelta
	if s := COOBytes(c.Len(), lo, hi); s < best {
		best, fmtBest = s, FormatCOO
	}
	if s := BitmapBytes(c.Len(), lo, hi); s < best {
		best, fmtBest = s, FormatBitmap
	}
	return best, fmtBest
}

// Encode picks the smallest of the four encodings for a chunk whose
// indices lie in [lo, hi) and returns the buffer and chosen format.
func Encode(c *sparse.Chunk, lo, hi int32) ([]byte, Format) {
	return AppendEncode(nil, c, lo, hi)
}

// AppendEncode appends the smallest of the four encodings to dst —
// the allocation-free path byte-level transports and pooled send buffers
// use.
func AppendEncode(dst []byte, c *sparse.Chunk, lo, hi int32) ([]byte, Format) {
	_, format := EncodedBytes(c, lo, hi)
	switch format {
	case FormatCOO:
		dst = AppendCOO(dst, c, lo, hi)
	case FormatBitmap:
		dst = AppendBitmap(dst, c, lo, hi)
	case FormatDense:
		dst = AppendDense(dst, c, lo, hi)
	default:
		dst = AppendDelta(dst, c, lo, hi)
	}
	return dst, format
}

// DecodeArena reverses any of the four encodings, allocating the decoded
// chunk from the receiver's arena (from the heap when a is nil). FormatDense
// decodes straight into arena dense-block storage, so a stream that
// switched representation at the sender stays dense on the receiver.
func DecodeArena(a *sparse.Arena, buf []byte) (*sparse.Chunk, error) {
	format, count, lo, hi, body, err := parseHeader(buf)
	if err != nil {
		return nil, err
	}
	// Every format stores at least 4 value bytes per entry, so a count that
	// cannot fit in the body is corrupt; reject it before allocating.
	if 4*count > len(body) {
		return nil, fmt.Errorf("wire: entry count %d impossible for %d body bytes", count, len(body))
	}
	if format == FormatDense {
		span := int(hi - lo)
		if count != span {
			return nil, fmt.Errorf("wire: dense count %d != span %d", count, span)
		}
		if len(body) != 4*span {
			return nil, fmt.Errorf("wire: dense body %d bytes, want %d", len(body), 4*span)
		}
		c := a.GetDense(lo, span)
		for i := range c.Val {
			c.Val[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
		}
		return c, nil
	}
	c := a.Get(count)
	switch format {
	case FormatCOO:
		if len(body) != 8*count {
			return nil, fmt.Errorf("wire: COO body %d bytes, want %d", len(body), 8*count)
		}
		for i := 0; i < count; i++ {
			c.Idx = append(c.Idx, int32(binary.LittleEndian.Uint32(body[8*i:])))
			c.Val = append(c.Val, math.Float32frombits(binary.LittleEndian.Uint32(body[8*i+4:])))
		}
	case FormatDelta:
		// The packed-values region is exactly the trailing 4·count bytes;
		// the varint index region must end precisely at its boundary, so a
		// corrupt entry count can never consume value bytes as varints.
		valOff := len(body) - 4*count
		idxRegion := body[:valOff]
		prev := int64(lo)
		off := 0
		for i := 0; i < count; i++ {
			gap, n := binary.Uvarint(idxRegion[off:])
			if n <= 0 {
				return nil, fmt.Errorf("wire: bad varint at entry %d", i)
			}
			off += n
			// Bound the gap before accumulating: a huge varint could wrap
			// the accumulator and truncate to a fabricated in-range index.
			if gap > uint64(hi-lo) {
				return nil, fmt.Errorf("wire: delta gap %d exceeds range width %d", gap, hi-lo)
			}
			prev += int64(gap)
			if prev >= int64(hi) {
				return nil, fmt.Errorf("wire: delta index %d outside range [%d, %d)", prev, lo, hi)
			}
			c.Idx = append(c.Idx, int32(prev))
		}
		if off != len(idxRegion) {
			return nil, fmt.Errorf("wire: %d stray bytes between delta indices and values", len(idxRegion)-off)
		}
		for i := 0; i < count; i++ {
			c.Val = append(c.Val, math.Float32frombits(binary.LittleEndian.Uint32(body[valOff+4*i:])))
		}
	case FormatBitmap:
		span := int(hi - lo)
		nb := (span + 7) / 8
		if len(body) != nb+4*count {
			return nil, fmt.Errorf("wire: bitmap body %d bytes, want %d", len(body), nb+4*count)
		}
		bits := body[:nb]
		seen := 0
		for rel := 0; rel < span; rel++ {
			if bits[rel/8]&(1<<(rel%8)) != 0 {
				if seen == count {
					return nil, fmt.Errorf("wire: bitmap contains more than %d bits", count)
				}
				c.Idx = append(c.Idx, lo+int32(rel))
				c.Val = append(c.Val, math.Float32frombits(binary.LittleEndian.Uint32(body[nb+4*seen:])))
				seen++
			}
		}
		if seen != count {
			return nil, fmt.Errorf("wire: bitmap contains %d bits, header says %d", seen, count)
		}
	default:
		return nil, fmt.Errorf("wire: unknown format %d", format)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("wire: decoded invalid chunk: %w", err)
	}
	if err := checkRange(c, lo, hi); err != nil {
		return nil, fmt.Errorf("wire: decoded chunk breaks its header range: %w", err)
	}
	return c, nil
}

func checkRange(c *sparse.Chunk, lo, hi int32) error {
	if lo < 0 || hi < lo {
		return fmt.Errorf("wire: invalid range [%d,%d)", lo, hi)
	}
	if c.Len() == 0 {
		return nil
	}
	if c.IdxAt(0) < lo || c.IdxAt(c.Len()-1) >= hi {
		return fmt.Errorf("wire: chunk indices [%d,%d] outside range [%d,%d)",
			c.IdxAt(0), c.IdxAt(c.Len()-1), lo, hi)
	}
	return nil
}

// mustRange panics on indices outside [lo, hi): encoding out of range is an
// algorithm bug, not a recoverable condition.
func mustRange(c *sparse.Chunk, lo, hi int32) {
	if err := checkRange(c, lo, hi); err != nil {
		panic(err)
	}
}
