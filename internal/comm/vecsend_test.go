package comm_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"spardl/internal/collective"
	"spardl/internal/comm"
	"spardl/internal/livenet"
	"spardl/internal/tcpnet"
)

// TestVecSendPaths runs both dense schedules through Send on livenet and
// loopback tcpnet twice: lending the vector's memory as the frame's Tail
// and memmoving received views into place with CopyTo (what a
// little-endian host does), and encoding with putFloat32s and decoding
// with loadFloat32s (what a big-endian host does). Both must reproduce the
// output hashes TestDenseEquivalence in internal/collective pins for the
// same cases — captured before either path existed — and move the same
// bytes, so the big-endian fallbacks are exercised on a little-endian
// machine too.
func TestVecSendPaths(t *testing.T) {
	cases := []struct {
		name   string
		reduce func(comm.Endpoint, []float32)
		p, n   int
		hash   uint64
	}{
		{"rabenseifner", collective.RabenseifnerAllReduce, 4, 2001, 0xeeaeef3d30dcfb5d},
		{"ring", collective.RingAllReduce, 7, 2000, 0xf402e944ef68aa39},
	}
	fabrics := []struct {
		name string
		new  func() comm.Backend
	}{
		{"livenet", livenet.NewBackend},
		{"tcpnet-local", func() comm.Backend { return tcpnet.LocalBackend(30 * time.Second) }},
	}
	const syncs = 3
	for _, c := range cases {
		for _, fb := range fabrics {
			sent := map[bool]int64{}
			for _, zeroCopy := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/P=%d/%s/zero-copy=%v", c.name, c.p, fb.name, zeroCopy), func(t *testing.T) {
					defer comm.SetVecZeroCopy(zeroCopy)()
					outs := make([][][]float32, syncs)
					for it := range outs {
						outs[it] = make([][]float32, c.p)
					}
					rep := fb.new().Run(c.p, func(rank int, ep comm.Endpoint) {
						for it := 0; it < syncs; it++ {
							outs[it][rank] = equivalenceGrad(rank, it, c.n)
							c.reduce(ep, outs[it][rank])
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
					for _, s := range rep.PerWorker {
						sent[zeroCopy] += s.BytesSent
					}
				})
			}
			if sent[true] != sent[false] {
				t.Errorf("%s on %s: %d bytes sent lending the vector, %d encoding it", c.name, fb.name, sent[true], sent[false])
			}
		}
	}
}

// equivalenceGrad is internal/collective's denseGrad, the input its pinned
// hashes were captured with: normal values, runs of exact zeros, and a −0
// at the same positions on every rank.
func equivalenceGrad(rank, iter, n int) []float32 {
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
