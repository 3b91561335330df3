package sparsecoll

import (
	"encoding/binary"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/sparse"
)

// TestItemDecodersRejectBadBodies feeds the payload decoder the all-gather
// items of this package — TopkDSA's []any{block, chunk} and Ok-Topk's
// []*sparse.Chunk — with bodies no encoder writes: each must return an
// error, not panic and not an item, on the heap and into an arena. The
// well-formed items decode back to the shapes the reducers read.
func TestItemDecodersRejectBadBodies(t *testing.T) {
	c := &sparse.Chunk{Idx: []int32{3, 4, 9}, Val: []float32{1.5, -2, 0.25}}
	dsa := comm.MarshalPayload([]any{3, c})
	ok := comm.MarshalPayload([]*sparse.Chunk{c, {}})
	for _, a := range []*sparse.Arena{nil, sparse.NewArena()} {
		v, err := comm.UnmarshalPayloadArena(a, dsa)
		if b, _ := v.([]any); err != nil || len(b) != 2 || b[0] != 3 || b[1].(*sparse.Chunk).Len() != 3 {
			t.Fatalf("dsa block round trip (arena %v): got (%v, %v)", a != nil, v, err)
		}
		v, err = comm.UnmarshalPayloadArena(a, ok)
		if cs, _ := v.([]*sparse.Chunk); err != nil || len(cs) != 2 || cs[0].Len() != 3 || cs[1].Len() != 0 {
			t.Fatalf("ok item round trip (arena %v): got (%v, %v)", a != nil, v, err)
		}
	}

	const tagList, tagInt, tagChunks = 0x06, 0x02, 0x14
	// bag frames body as a chunk bag with its 4-byte length.
	bag := func(body []byte) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte{tagChunks}, uint32(len(body))), body...)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"dsa block: no varint", []byte{tagList}},
		{"dsa block: varint overflows",
			[]byte{tagList, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{"dsa block: no payload after the block", []byte{tagList, 2, tagInt, 6}},
		{"dsa block: chunk cut short", dsa[:len(dsa)-1]},
		{"ok item: not a payload list", bag([]byte{0x80})},
		{"ok item: list holds a non-chunk", bag(comm.AppendPayload([]byte{1}, 5))},
		{"ok item: chunk cut short", ok[:len(ok)-1]},
	} {
		for _, a := range []*sparse.Arena{nil, sparse.NewArena()} {
			v, err := comm.UnmarshalPayloadArena(a, tc.body)
			if err == nil || v != nil {
				t.Errorf("%s (arena %v): got (%v, %v), want an error and no item", tc.name, a != nil, v, err)
			}
		}
	}
}
