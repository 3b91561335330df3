package wire

import (
	"fmt"

	"spardl/internal/comm"
	"spardl/internal/sparse"
)

// Byte-level backends (livenet, tcpnet) serialize every payload through
// the comm registry; this file plugs the sparse-chunk codecs in, which is
// what makes wire the load-bearing serializer for real transports: a chunk
// crossing a byte link is exactly the Encode/Decode byte stream, never a
// shared reference, and there is no other format — Transport.Mode only
// changes what the simulator charges.

func init() {
	comm.RegisterPayload(comm.PayloadCodec{
		Tag:   comm.TagChunk,
		Match: func(v any) bool { _, ok := v.(*sparse.Chunk); return ok },
		Append: func(dst []byte, v any) []byte {
			c := v.(*sparse.Chunk)
			lo, hi := Range(c)
			// Encode straight into the caller's (pooled) buffer: no
			// intermediate allocation, no extra copy.
			out, _ := AppendEncode(dst, c, lo, hi)
			return out
		},
		Decode: func(a *sparse.Arena, body []byte) (any, error) {
			return DecodeArena(a, body)
		},
	})
	comm.RegisterPayload(comm.PayloadCodec{
		Tag:   comm.TagChunkSlice,
		Match: func(v any) bool { _, ok := v.([]*sparse.Chunk); return ok },
		Append: func(dst []byte, v any) []byte {
			return AppendChunkSlice(dst, v.([]*sparse.Chunk))
		},
		Decode: func(a *sparse.Arena, body []byte) (any, error) {
			return DecodeChunkSlice(a, body)
		},
	})
}

// AppendChunkSlice appends the TagChunkSlice body — a payload list of
// chunks — to dst. Codecs of payloads that are chunk lists at heart
// (sparsecoll's Ok-Topk item) share it.
func AppendChunkSlice(dst []byte, cs []*sparse.Chunk) []byte {
	return comm.AppendPayloadList(dst, len(cs), func(i int) any { return cs[i] })
}

// DecodeChunkSlice reverses AppendChunkSlice: each chunk is decoded into
// the arena (heap on nil) with the pointer slice drawn from the arena's
// pointer slabs.
func DecodeChunkSlice(a *sparse.Arena, body []byte) ([]*sparse.Chunk, error) {
	items, rest, err := comm.ReadPayloadListArena(a, body)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after chunk slice", len(rest))
	}
	cs := a.Chunks(len(items)) // nil-safe: heap when a == nil
	for _, v := range items {
		c, ok := v.(*sparse.Chunk)
		if !ok {
			return nil, fmt.Errorf("wire: chunk slice holds %T", v)
		}
		cs = append(cs, c)
	}
	return cs, nil
}
