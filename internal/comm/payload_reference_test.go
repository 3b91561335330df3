package comm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The dense-vector codec as it stood before vec.go: one element at a time,
// append-per-element on the way out, index-per-element on the way in. The
// two loops are kept verbatim as the oracle the unrolled loops are held to
// (vec_test.go); only the tag became a parameter, since Vec shares the
// framing under its own.

func refAppendFloat32s(dst []byte, tag byte, x []float32) []byte {
	dst = append(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(len(x)))
	for _, f := range x {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
	}
	return dst
}

func refReadFloat32s(buf []byte, tag byte) ([]float32, []byte, error) {
	if len(buf) == 0 || buf[0] != tag {
		return nil, nil, fmt.Errorf("reference: not a tag 0x%02x payload", tag)
	}
	count, rest, err := readCount(buf[1:], "float32 vector")
	if err != nil {
		return nil, nil, err
	}
	if len(rest) < 4*count {
		return nil, nil, fmt.Errorf("comm: float32 vector truncated (%d of %d values)", len(rest)/4, count)
	}
	out := make([]float32, count)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest[4*i:]))
	}
	return out, rest[4*count:], nil
}
