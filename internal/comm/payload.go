package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"spardl/internal/sparse"
	"spardl/internal/wire"
)

// Payload serialization for the byte-level transports (livenet, tcpnet).
//
// Every payload a collective in this repository sends is one of a small,
// closed set of shapes: a scalar (int, float64), a dense vector
// ([]float32, or the all-reduce schedules' Vec — see vec.go), a container
// of further payloads ([]any from Bruck, the evaluation messages), a
// sparse chunk or a bag of chunks (one SRS step). A chunk crossing a byte
// link is exactly wire's negotiated encoding, never a shared reference,
// and there is no other format: wire.Transport's mode only changes what the
// simulator charges.
// The encoding is self-describing — a one-byte tag followed by the body —
// so containers nest and a decoded message needs no out-of-band context.
const (
	tagFloat64  byte = 0x01
	tagInt      byte = 0x02
	tagFloat32s byte = 0x05
	tagAnySlice byte = 0x06
	tagVec      byte = 0x08 // tagFloat32s' body; decodes to a view, not a slice
	// The chunk tags carry a 4-byte body length before the body, so the
	// decoder can delimit a chunk before parsing wire's framing.
	tagChunk  byte = 0x10 // *sparse.Chunk: wire.AppendEncode's bytes
	tagChunks byte = 0x14 // []*sparse.Chunk: a uvarint count, then that many tagChunk payloads
)

// MarshalPayload serializes any supported payload into a fresh buffer.
func MarshalPayload(v any) []byte { return AppendPayload(nil, v) }

// AppendPayload serializes v onto dst and returns the extended slice.
// It panics on unsupported types: a payload outside the set above is an
// algorithm/transport wiring bug, not a runtime condition.
func AppendPayload(dst []byte, v any) []byte {
	switch x := v.(type) {
	case float64:
		dst = append(dst, tagFloat64)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	case int:
		dst = append(dst, tagInt)
		return binary.AppendVarint(dst, int64(x))
	case []float32:
		return appendFloat32s(append(dst, tagFloat32s), x)
	case Vec:
		return appendFloat32s(append(dst, tagVec), x.F)
	case []any:
		dst = binary.AppendUvarint(append(dst, tagAnySlice), uint64(len(x)))
		for _, it := range x {
			dst = AppendPayload(dst, it)
		}
		return dst
	case *sparse.Chunk:
		// Encoded straight into the caller's (pooled) buffer, the length
		// backfilled afterwards: no temporary body buffer, no extra copy.
		dst = append(dst, tagChunk, 0, 0, 0, 0)
		at := len(dst)
		lo, hi := wire.Range(x)
		dst, _ = wire.AppendEncode(dst, x, lo, hi)
		return putBodyLen(dst, at)
	case []*sparse.Chunk:
		dst = append(dst, tagChunks, 0, 0, 0, 0)
		at := len(dst)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		for _, c := range x {
			dst = AppendPayload(dst, c)
		}
		return putBodyLen(dst, at)
	}
	panic(fmt.Sprintf("comm: no payload encoding for %T", v))
}

// putBodyLen backfills the 4-byte length before dst[at:].
func putBodyLen(dst []byte, at int) []byte {
	binary.LittleEndian.PutUint32(dst[at-4:], uint32(len(dst)-at))
	return dst
}

// UnmarshalPayloadArena decodes one payload that must span the whole
// buffer. With a nil arena decoded values never alias buf, so callers may
// recycle it. With a non-nil arena the contract inverts for zero-copy
// receive paths: buf must be storage the arena owns (alive through the
// current epoch plus quarantine), decoded values MAY alias buf, and
// container and chunk allocations are drawn from the arena.
func UnmarshalPayloadArena(a *sparse.Arena, buf []byte) (any, error) {
	v, rest, err := readPayloadArena(a, buf)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("comm: %d trailing bytes after payload", len(rest))
	}
	return v, nil
}

// readPayloadArena decodes the next payload from buf under the
// UnmarshalPayloadArena contract and returns the remainder.
func readPayloadArena(a *sparse.Arena, buf []byte) (v any, rest []byte, err error) {
	if len(buf) == 0 {
		return nil, nil, fmt.Errorf("comm: empty payload")
	}
	tag, body := buf[0], buf[1:]
	switch tag {
	case tagFloat64:
		if len(body) < 8 {
			return nil, nil, fmt.Errorf("comm: truncated float64 payload")
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(body)), body[8:], nil
	case tagInt:
		x, n := binary.Varint(body)
		if n <= 0 {
			return nil, nil, fmt.Errorf("comm: bad int payload varint")
		}
		return int(x), body[n:], nil
	case tagFloat32s, tagVec:
		count, rest, err := readCount(body, "float32 vector")
		if err != nil {
			return nil, nil, err
		}
		if len(rest) < 4*count {
			return nil, nil, fmt.Errorf("comm: float32 vector truncated (%d of %d values)", len(rest)/4, count)
		}
		raw, rest := rest[:4*count], rest[4*count:]
		if tag == tagVec {
			return readVec(a, raw), rest, nil
		}
		var out []float32
		if a != nil {
			out = a.GetDense(0, count).Val
		} else {
			out = make([]float32, count)
		}
		loadFloat32s(out, raw)
		return out, rest, nil
	case tagAnySlice:
		count, rest, err := readCount(body, "payload list")
		if err != nil {
			return nil, nil, err
		}
		items := a.Anys(count) // nil-safe: heap when a == nil
		for i := 0; i < count; i++ {
			var it any
			if it, rest, err = readPayloadArena(a, rest); err != nil {
				return nil, nil, err
			}
			items = append(items, it)
		}
		return items, rest, nil
	case tagChunk, tagChunks:
		if len(body) < 4 {
			return nil, nil, fmt.Errorf("comm: truncated chunk payload length")
		}
		n := binary.LittleEndian.Uint32(body)
		if body = body[4:]; uint64(n) > uint64(len(body)) {
			return nil, nil, fmt.Errorf("comm: chunk payload length %d exceeds %d remaining bytes", n, len(body))
		}
		if tag == tagChunk {
			v, err = wire.DecodeArena(a, body[:n])
		} else {
			v, err = readChunks(a, body[:n])
		}
		if err != nil {
			return nil, nil, fmt.Errorf("comm: payload tag 0x%02x: %w", tag, err)
		}
		return v, body[n:], nil
	}
	return nil, nil, fmt.Errorf("comm: unknown payload tag 0x%02x", tag)
}

// readChunks decodes a tagChunks body, which must hold exactly its count
// of chunk payloads. The pointer slice comes from the arena's pointer slabs
// (heap on a nil arena).
func readChunks(a *sparse.Arena, body []byte) ([]*sparse.Chunk, error) {
	count, rest, err := readCount(body, "chunk bag")
	if err != nil {
		return nil, err
	}
	cs := a.Chunks(count)
	for i := 0; i < count; i++ {
		var v any
		if v, rest, err = readPayloadArena(a, rest); err != nil {
			return nil, err
		}
		c, ok := v.(*sparse.Chunk)
		if !ok {
			return nil, fmt.Errorf("comm: chunk bag holds %T", v)
		}
		cs = append(cs, c)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("comm: %d trailing bytes after chunk bag", len(rest))
	}
	return cs, nil
}

// readCount reads a uvarint element count, bounded by the bytes actually
// present so a corrupt count cannot trigger a huge allocation.
func readCount(buf []byte, what string) (int, []byte, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 {
		return 0, nil, fmt.Errorf("comm: bad %s count varint", what)
	}
	rest := buf[used:]
	if n > uint64(len(rest)) {
		return 0, nil, fmt.Errorf("comm: %s count %d impossible for %d body bytes", what, n, len(rest))
	}
	return int(n), rest, nil
}
