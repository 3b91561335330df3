package wire

import (
	"fmt"

	"spardl/internal/sparse"
)

// Mode selects what the simulator charges for a sparse message. It is an
// accounting rule, not a format: on the byte-level backends (livenet,
// tcpnet) comm serializes every chunk with this package's one negotiated
// codec, whatever the mode says, and the real byte counts are what their
// statistics report.
type Mode int

const (
	// ModeCOO is the paper's accounting baseline: every chunk costs exactly
	// 8 bytes per entry (int32 index + float32 value), with no header. This
	// reproduces Table I's 2k-element bookkeeping bit-for-bit and is the
	// default everywhere.
	ModeCOO Mode = iota
	// ModeNegotiated charges the size of the smallest self-describing
	// encoding (COO / delta-varint / bitmap / dense, header included) —
	// exactly the bytes the real backends put on the wire for the chunk.
	ModeNegotiated
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeCOO:
		return "coo"
	case ModeNegotiated:
		return "negotiated"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Transport sizes the sparse messages of every collective in this
// repository. The zero value is the COO accounting baseline. Chunks travel
// as themselves (*sparse.Chunk, []*sparse.Chunk) under either mode, so the
// payload objects — and on byte backends the bytes — do not depend on it.
type Transport struct {
	Mode Mode
	// Arena is unused; it and PackItem remain only because bench/replay.go,
	// which a simplification may not edit, still names them.
	Arena *sparse.Arena
}

// ChunkBytes returns the wire size charged for one chunk, using the tight
// index range for the negotiated encodings.
func (t Transport) ChunkBytes(c *sparse.Chunk) int {
	if t.Mode == ModeNegotiated {
		lo, hi := Range(c)
		n, _ := EncodedBytes(c, lo, hi)
		return n
	}
	return c.WireBytes()
}

// SliceBytes returns the summed charge for a batch of chunks.
func (t Transport) SliceBytes(cs []*sparse.Chunk) int {
	total := 0
	for _, c := range cs {
		total += t.ChunkBytes(c)
	}
	return total
}

// PackSlice returns a batch of chunks travelling in one message (e.g. one
// SRS sending bag) as the payload it already is — this is where the slice
// is boxed — with its summed charge. Receivers assert the payload back to
// []*sparse.Chunk.
func (t Transport) PackSlice(cs []*sparse.Chunk) (payload any, bytes int) {
	return cs, t.SliceBytes(cs)
}

// PackItem returns the chunk as the all-gather item it already is.
func (t Transport) PackItem(c *sparse.Chunk) any { return c }

// ItemBytes is the collective.SizeFunc of an all-gather whose items are
// chunks. The collective re-evaluates it on every forwarding hop; the
// charge is a pure function of the entry set, so every hop and every
// worker agree.
func (t Transport) ItemBytes(it any) int { return t.ChunkBytes(it.(*sparse.Chunk)) }
