package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPartitionBalance(t *testing.T) {
	p := NewPartition(10, 3)
	want := []int{0, 4, 7, 10}
	for i, off := range want {
		if p.Offsets[i] != off {
			t.Fatalf("offset %d: got %d want %d (all %v)", i, p.Offsets[i], off, p.Offsets)
		}
	}
	if lo, hi := p.Bounds(1); lo != 4 || hi != 7 {
		t.Fatalf("Bounds(1) = %d,%d", lo, hi)
	}
	if p.Size(0) != 4 || p.Size(2) != 3 {
		t.Fatal("block sizes wrong")
	}
}

func TestPartitionMoreBlocksThanElements(t *testing.T) {
	p := NewPartition(2, 5)
	total := 0
	for b := 0; b < 5; b++ {
		total += p.Size(b)
	}
	if total != 2 {
		t.Fatalf("sizes must sum to n, got %d", total)
	}
}

func TestBlockOf(t *testing.T) {
	p := NewPartition(100, 7)
	for i := 0; i < 100; i++ {
		b := p.BlockOf(int32(i))
		lo, hi := p.Bounds(b)
		if i < lo || i >= hi {
			t.Fatalf("index %d mapped to block %d [%d,%d)", i, b, lo, hi)
		}
	}
}

// joinParts concatenates Split's per-block pieces back into one chunk.
func joinParts(parts []*Chunk) *Chunk {
	out := &Chunk{}
	for _, part := range parts {
		out.Idx = append(out.Idx, part.Idx...)
		out.Val = append(out.Val, part.Val...)
	}
	return out
}

func TestSplitCoversChunk(t *testing.T) {
	c := chunkOf(0, 1, 3, 2, 4, 3, 9, 4, 10, 5, 99, 6)
	p := NewPartition(100, 4)
	parts := p.Split(c)
	if len(parts) != 4 {
		t.Fatalf("want 4 parts, got %d", len(parts))
	}
	assertChunkEqual(t, joinParts(parts), c)
	for b, part := range parts {
		lo, hi := p.Bounds(b)
		for _, idx := range part.Idx {
			if int(idx) < lo || int(idx) >= hi {
				t.Fatalf("block %d contains out-of-range index %d", b, idx)
			}
		}
	}
}

// Property: for random n/blocks, offsets are monotone, sizes differ by at
// most one, and Split round-trips random chunks.
func TestPartitionProperties(t *testing.T) {
	f := func(seed int64, nRaw, bRaw uint16) bool {
		n := int(nRaw)%5000 + 1
		blocks := int(bRaw)%32 + 1
		p := NewPartition(n, blocks)
		minSz, maxSz := n, 0
		for b := 0; b < blocks; b++ {
			s := p.Size(b)
			if s < 0 {
				return false
			}
			if s < minSz {
				minSz = s
			}
			if s > maxSz {
				maxSz = s
			}
		}
		if maxSz-minSz > 1 {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		c := randomChunk(rng, 200, n)
		back := joinParts(p.Split(c))
		if back.Len() != c.Len() {
			return false
		}
		for i := range back.Idx {
			if back.Idx[i] != c.Idx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
