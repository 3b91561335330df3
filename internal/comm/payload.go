package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"spardl/internal/sparse"
)

// Payload serialization for the byte-level transports (livenet, tcpnet).
//
// Every payload a collective in this repository sends is one of a small,
// closed set of shapes: a scalar (int, float64), a dense vector
// ([]float32, or the all-reduce schedules' Vec — see vec.go), a container
// of further payloads ([]any from Bruck,
// map[int]any from recursive doubling), or a domain type registered by its
// owning package (sparse chunks via the wire codecs, the all-gather item
// wrappers of sparsecoll).
// The encoding is self-describing — a one-byte tag followed by the body —
// so containers nest and a decoded message needs no out-of-band context.
//
// Built-in tags live below 0x10; domain packages register tags from the
// block below, coordinated here so the registry stays collision-free.

// Built-in payload tags.
const (
	tagFloat64   byte = 0x01
	tagInt       byte = 0x02
	tagFloat32s  byte = 0x05
	tagAnySlice  byte = 0x06
	tagIntAnyMap byte = 0x07
	tagVec       byte = 0x08 // tagFloat32s' body; decodes to a view, not a slice
)

// Registered payload tags. Each constant is claimed by exactly one
// PayloadCodec registration in the named package's init.
const (
	TagChunk      byte = 0x10 // *sparse.Chunk, registered by package wire
	TagDSABlock   byte = 0x12 // sparsecoll's TopkDSA all-gather item
	TagOkItem     byte = 0x13 // sparsecoll's Ok-Topk all-gather item
	TagChunkSlice byte = 0x14 // []*sparse.Chunk (one SRS sending bag)
)

// PayloadCodec serializes one domain payload type. Registrations must
// happen in package init functions (the registry is read concurrently,
// without locking, once workers run).
type PayloadCodec struct {
	// Tag is the self-describing type byte; it must be one of the Tag*
	// constants above and unique across registrations.
	Tag byte
	// Match reports whether v is this codec's type.
	Match func(v any) bool
	// Append encodes v's body onto dst and returns the extended slice.
	Append func(dst []byte, v any) []byte
	// Decode parses a body produced by Append. It must not retain body:
	// byte-level backends recycle receive buffers after decoding.
	Decode func(body []byte) (any, error)
	// DecodeArena, when non-nil, is the zero-copy variant used by
	// arena-backed transports (tcpnet's receive path): body is storage the
	// supplied arena owns, alive at least as long as anything decoded this
	// epoch, so the decoded value may alias body and should draw its own
	// allocations from a. Codecs without it fall back to Decode — correct,
	// just not allocation-free. (Vec is the first built-in payload that
	// takes the same liberty: its arena decode is a view of body.)
	DecodeArena func(a *sparse.Arena, body []byte) (any, error)
}

var payloadCodecs []PayloadCodec

// RegisterPayload adds a domain payload codec. It panics on tag collisions
// or malformed registrations — both are wiring bugs, caught at init.
func RegisterPayload(c PayloadCodec) {
	if c.Tag < 0x10 || c.Match == nil || c.Append == nil || c.Decode == nil {
		panic(fmt.Sprintf("comm: malformed payload codec registration (tag 0x%02x)", c.Tag))
	}
	for _, have := range payloadCodecs {
		if have.Tag == c.Tag {
			panic(fmt.Sprintf("comm: payload tag 0x%02x registered twice", c.Tag))
		}
	}
	payloadCodecs = append(payloadCodecs, c)
}

// MarshalPayload serializes any supported payload into a fresh buffer.
func MarshalPayload(v any) []byte { return AppendPayload(nil, v) }

// AppendPayload serializes v onto dst and returns the extended slice.
// Registered codecs use it to nest payloads inside their own bodies.
// It panics on unsupported types: a payload no codec covers is an
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
		dst = append(dst, tagAnySlice)
		return AppendPayloadList(dst, len(x), func(i int) any { return x[i] })
	case map[int]any:
		// Sorted keys keep the encoding deterministic: equal maps must
		// produce equal bytes regardless of Go's map iteration order.
		keys := make([]int, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		dst = append(dst, tagIntAnyMap)
		dst = binary.AppendUvarint(dst, uint64(len(keys)))
		for _, k := range keys {
			dst = binary.AppendVarint(dst, int64(k))
			dst = AppendPayload(dst, x[k])
		}
		return dst
	}
	for i := range payloadCodecs {
		c := &payloadCodecs[i]
		if c.Match(v) {
			// Registered bodies carry a fixed 4-byte length prefix,
			// backfilled after the codec appends in place: ReadPayload can
			// delimit the body without understanding the codec's framing,
			// and the hot send path stays free of temporary body buffers.
			dst = append(dst, c.Tag, 0, 0, 0, 0)
			lenAt := len(dst) - 4
			dst = c.Append(dst, v)
			binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
			return dst
		}
	}
	panic(fmt.Sprintf("comm: no payload codec for %T", v))
}

// UnmarshalPayload decodes one payload that must span the whole buffer.
func UnmarshalPayload(buf []byte) (any, error) {
	return UnmarshalPayloadArena(nil, buf)
}

// UnmarshalPayloadArena is the arena-aware UnmarshalPayload: with a
// non-nil arena, buf must be arena-owned storage and decoded values may
// alias it (see ReadPayloadArena). A nil arena is exactly
// UnmarshalPayload.
func UnmarshalPayloadArena(a *sparse.Arena, buf []byte) (any, error) {
	v, rest, err := ReadPayloadArena(a, buf)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("comm: %d trailing bytes after payload", len(rest))
	}
	return v, nil
}

// ReadPayloadArena decodes the next payload from buf and returns the
// remainder. With a nil arena decoded values never alias buf, so callers
// may recycle it. With a non-nil arena the contract inverts for zero-copy
// receive paths: buf must be storage the arena owns (alive through the
// current epoch plus quarantine), decoded values MAY alias buf, and
// container and chunk allocations are drawn from the arena via each
// codec's DecodeArena.
func ReadPayloadArena(a *sparse.Arena, buf []byte) (v any, rest []byte, err error) {
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
		wire, rest := rest[:4*count], rest[4*count:]
		if tag == tagVec {
			return readVec(a, wire), rest, nil
		}
		var out []float32
		if a != nil {
			out = a.GetDense(0, count).Val
		} else {
			out = make([]float32, count)
		}
		loadFloat32s(out, wire)
		return out, rest, nil
	case tagAnySlice:
		out, rest, err := ReadPayloadListArena(a, body)
		if err != nil {
			return nil, nil, err
		}
		return out, rest, nil
	case tagIntAnyMap:
		count, rest, err := readCount(body, "map")
		if err != nil {
			return nil, nil, err
		}
		out := make(map[int]any, count)
		for i := 0; i < count; i++ {
			k, n := binary.Varint(rest)
			if n <= 0 {
				return nil, nil, fmt.Errorf("comm: bad map key varint")
			}
			rest = rest[n:]
			out[int(k)], rest, err = ReadPayloadArena(a, rest)
			if err != nil {
				return nil, nil, err
			}
		}
		return out, rest, nil
	}
	for i := range payloadCodecs {
		c := &payloadCodecs[i]
		if c.Tag != tag {
			continue
		}
		if len(body) < 4 {
			return nil, nil, fmt.Errorf("comm: truncated registered-payload length")
		}
		n := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if n > len(body) {
			return nil, nil, fmt.Errorf("comm: registered payload length %d exceeds %d remaining bytes", n, len(body))
		}
		var v any
		if a != nil && c.DecodeArena != nil {
			v, err = c.DecodeArena(a, body[:n])
		} else {
			v, err = c.Decode(body[:n])
		}
		if err != nil {
			return nil, nil, fmt.Errorf("comm: payload tag 0x%02x: %w", tag, err)
		}
		return v, body[n:], nil
	}
	return nil, nil, fmt.Errorf("comm: unknown payload tag 0x%02x", tag)
}

// AppendPayloadList appends a uvarint count followed by count nested
// payloads, at(i) supplying each — the framing registered codecs share
// for their payload sequences.
func AppendPayloadList(dst []byte, count int, at func(int) any) []byte {
	dst = binary.AppendUvarint(dst, uint64(count))
	for i := 0; i < count; i++ {
		dst = AppendPayload(dst, at(i))
	}
	return dst
}

// ReadPayloadListArena reverses AppendPayloadList and returns the
// remainder. The count is bounded by the bytes actually present before
// anything is allocated, so corrupt buffers error out of the decode path
// cleanly. The item slice comes from the arena's item slabs (heap on a nil
// arena) and nested payloads decode under the ReadPayloadArena aliasing
// contract.
func ReadPayloadListArena(a *sparse.Arena, buf []byte) (items []any, rest []byte, err error) {
	count, rest, err := readCount(buf, "payload list")
	if err != nil {
		return nil, nil, err
	}
	items = a.Anys(count) // nil-safe: heap when a == nil
	for i := 0; i < count; i++ {
		var v any
		v, rest, err = ReadPayloadArena(a, rest)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, v)
	}
	return items, rest, nil
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
