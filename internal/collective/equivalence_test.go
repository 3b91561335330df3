package collective

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"spardl/internal/comm"
	"spardl/internal/livenet"
	"spardl/internal/simnet"
	"spardl/internal/tcpnet"
)

// denseEquivalence pins both dense schedules on every fabric: power-of-two
// P for Rabenseifner, any P for the ring, n not divisible by P and n < P.
// Each hash is FNV-1a over the Float32bits of every rank's vector after
// each of three syncs, captured from the commit before comm.Vec existed
// (plain []float32 payloads, staging copies in this package) — so a match
// says the outputs are bit-identical to that commit's and, the table being
// shared, across simnet, livenet and loopback tcpnet.
var denseEquivalence = []struct {
	ring bool
	p, n int
	hash uint64
}{
	{false, 2, 2001, 0xa403b4efa438f099},
	{false, 4, 2001, 0xeeaeef3d30dcfb5d},
	{false, 8, 2001, 0x3d22a5dc8d6bafb5},
	{false, 8, 5, 0x217c6fcca2139045},
	{true, 2, 2001, 0xa403b4efa438f099},
	{true, 3, 2000, 0x578fe240a5c65ad7},
	{true, 6, 2003, 0xb6d8c92972556be9},
	{true, 7, 2000, 0xf402e944ef68aa39},
	{true, 8, 2001, 0xc15fc7dd854c0db5},
	{true, 7, 5, 0xa199ca709ba6818c},
}

// denseGrad is one rank's input for one sync: normal values, runs of exact
// zeros, and a −0 at the same positions on every rank (their sum must keep
// its sign bit through every encode and decode).
func denseGrad(rank, iter, n int) []float32 {
	rng := rand.New(rand.NewSource(int64(1000*iter + rank)))
	g := make([]float32, n)
	for i := range g {
		switch {
		case i%97 == 3:
			g[i] = float32(math.Copysign(0, -1))
		case rng.Intn(4) != 0:
			g[i] = float32(rng.NormFloat64())
		}
	}
	return g
}

func TestDenseEquivalence(t *testing.T) {
	fabrics := []struct {
		name string
		new  func() comm.Backend
	}{
		{"simnet", func() comm.Backend { return simnet.Backend(comm.Ethernet) }},
		{"livenet", livenet.NewBackend},
		{"tcpnet-local", func() comm.Backend { return tcpnet.LocalBackend(30 * time.Second) }},
	}
	const syncs = 3
	for _, c := range denseEquivalence {
		reduce, name := RabenseifnerAllReduce, "rabenseifner"
		if c.ring {
			reduce, name = RingAllReduce, "ring"
		}
		for _, fb := range fabrics {
			t.Run(fmt.Sprintf("%s/P=%d/n=%d/%s", name, c.p, c.n, fb.name), func(t *testing.T) {
				outs := make([][][]float32, syncs)
				for it := range outs {
					outs[it] = make([][]float32, c.p)
				}
				fb.new().Run(c.p, func(rank int, ep comm.Endpoint) {
					for it := 0; it < syncs; it++ {
						outs[it][rank] = denseGrad(rank, it, c.n)
						reduce(ep, outs[it][rank])
						ep.SyncClock()
					}
				})
				h := fnv.New64a()
				var word [4]byte
				for _, sync := range outs {
					for _, vec := range sync {
						for _, v := range vec {
							binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
							h.Write(word[:])
						}
					}
				}
				if got := h.Sum64(); got != c.hash {
					t.Errorf("output hash %#x, want %#x", got, c.hash)
				}
			})
		}
	}
}
