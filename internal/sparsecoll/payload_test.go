package sparsecoll

import (
	"encoding/binary"
	"testing"

	"spardl/internal/comm"
)

// TestItemDecodersRejectBadBodies feeds the all-gather item decoders
// bodies that no encoder writes: each must return an error, not panic and
// not an item.
func TestItemDecodersRejectBadBodies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		decode func(body []byte) (any, error)
		body   []byte
	}{
		{"dsa block: no varint", func(b []byte) (any, error) { return decodeDSABlock(nil, b) }, nil},
		{"dsa block: varint overflows", func(b []byte) (any, error) { return decodeDSABlock(nil, b) },
			[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{"dsa block: no payload after the block", func(b []byte) (any, error) { return decodeDSABlock(nil, b) }, []byte{3}},
		{"dsa block: payload is not a chunk", func(b []byte) (any, error) { return decodeDSABlock(nil, b) },
			comm.AppendPayload(binary.AppendUvarint(nil, 3), 5)},
		{"ok item: not a payload list", func(b []byte) (any, error) { return decodeOkItem(nil, b) }, []byte{0x80}},
		{"ok item: list holds a non-chunk", func(b []byte) (any, error) { return decodeOkItem(nil, b) },
			comm.AppendPayloadList(nil, 1, func(int) any { return 5 })},
	} {
		v, err := tc.decode(tc.body)
		if err == nil || v != nil {
			t.Errorf("%s: got (%v, %v), want an error and no item", tc.name, v, err)
		}
	}
}
