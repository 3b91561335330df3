package wire

import (
	"math/rand"
	"testing"

	"spardl/internal/sparse"
)

func TestTransportModes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	chunks := []*sparse.Chunk{
		{},
		{Idx: []int32{9}, Val: []float32{2.5}},
		randomChunk(rng, 300, 5000),
		randomChunk(rng, 50, 100),
	}
	for _, c := range chunks {
		coo := Transport{}
		if got := coo.ChunkBytes(c); got != c.WireBytes() {
			t.Fatalf("COO mode charges %d, want the 8B/entry baseline %d", got, c.WireBytes())
		}

		// Negotiated accounting is the size of the real encoding.
		neg := Transport{Mode: ModeNegotiated}
		lo, hi := Range(c)
		enc, _ := Encode(c, lo, hi)
		if got := neg.ChunkBytes(c); got != len(enc) {
			t.Fatalf("negotiated mode charges %d, want encoded size %d", got, len(enc))
		}

		// All-gather items are the chunks themselves, sized as ChunkBytes.
		for _, tx := range []Transport{coo, neg} {
			it := tx.PackItem(c)
			if it != any(c) {
				t.Fatalf("mode %v: PackItem must pass the chunk through", tx.Mode)
			}
			if tx.ItemBytes(it) != tx.ChunkBytes(c) {
				t.Fatalf("mode %v: item sized %d, want %d", tx.Mode, tx.ItemBytes(it), tx.ChunkBytes(c))
			}
		}
	}
}

func TestTransportSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cs := []*sparse.Chunk{
		randomChunk(rng, 40, 400),
		{},
		randomChunk(rng, 200, 1000),
	}
	for _, mode := range []Mode{ModeCOO, ModeNegotiated} {
		tx := Transport{Mode: mode}
		want := 0
		for _, c := range cs {
			want += tx.ChunkBytes(c)
		}
		if total := tx.SliceBytes(cs); total != want {
			t.Fatalf("%v: SliceBytes charged %d, want summed %d", mode, total, want)
		}
	}
}

func TestTransportNegotiatedNeverWorseThanCOO(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	neg := Transport{Mode: ModeNegotiated}
	for i := 0; i < 100; i++ {
		c := randomChunk(rng, 400, 100+rng.Intn(8000))
		lo, hi := Range(c)
		if neg.ChunkBytes(c) > COOBytes(c.Len(), lo, hi) {
			t.Fatalf("negotiated %d exceeds headered COO %d", neg.ChunkBytes(c), COOBytes(c.Len(), lo, hi))
		}
		if neg.ChunkBytes(c) > c.WireBytes()+HeaderLen(c.Len(), lo, hi) {
			t.Fatalf("negotiated %d exceeds COO baseline %d + header", neg.ChunkBytes(c), c.WireBytes())
		}
	}
}
