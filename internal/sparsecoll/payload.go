package sparsecoll

import (
	"encoding/binary"
	"fmt"

	"spardl/internal/comm"
	"spardl/internal/sparse"
	"spardl/internal/wire"
)

// The all-gather item wrappers of this package (TopkDSA's block, Ok-Topk's
// balanced block) travel as opaque items through Bruck all-gather; on
// byte-level backends they must serialize like everything else, so they
// register with the comm payload registry. A body holds what the receiver
// needs to rebuild the item — the chunks, as the wire codec encodes them,
// and TopkDSA's block number — and nothing else: what the simulator charges
// for an item is its SizeFunc's business and never reaches the wire.

func init() {
	comm.RegisterPayload(comm.PayloadCodec{
		Tag:   comm.TagDSABlock,
		Match: func(v any) bool { _, ok := v.(*dsaBlock); return ok },
		Append: func(dst []byte, v any) []byte {
			b := v.(*dsaBlock)
			dst = binary.AppendUvarint(dst, uint64(b.block))
			return comm.AppendPayload(dst, b.c)
		},
		Decode: decodeDSABlock,
	})
	comm.RegisterPayload(comm.PayloadCodec{
		Tag:   comm.TagOkItem,
		Match: func(v any) bool { _, ok := v.(*okItem); return ok },
		Append: func(dst []byte, v any) []byte {
			return wire.AppendChunkSlice(dst, v.(*okItem).chunks)
		},
		Decode: decodeOkItem,
	})
}

// decodeDSABlock reverses the TagDSABlock body; the chunk decodes into the
// arena when one is supplied.
func decodeDSABlock(a *sparse.Arena, body []byte) (any, error) {
	block, used := binary.Uvarint(body)
	if used <= 0 {
		return nil, fmt.Errorf("sparsecoll: bad dsa block varint")
	}
	v, err := comm.UnmarshalPayloadArena(a, body[used:])
	if err != nil {
		return nil, err
	}
	c, ok := v.(*sparse.Chunk)
	if !ok {
		return nil, fmt.Errorf("sparsecoll: dsa block holds %T", v)
	}
	return &dsaBlock{block: int(block), c: c}, nil
}

// decodeOkItem reverses the TagOkItem body.
func decodeOkItem(a *sparse.Arena, body []byte) (any, error) {
	cs, err := wire.DecodeChunkSlice(a, body)
	if err != nil {
		return nil, err
	}
	return &okItem{chunks: cs}, nil
}
