package collective

import (
	"math"
	"math/rand"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/simnet"
)

var unit = comm.Profile{Name: "unit", Alpha: 1, Beta: 1}

func itemBytes(it any) int { return len(it.([]byte)) }

func TestBruckAllGatherAllSizes(t *testing.T) {
	for p := 1; p <= 17; p++ {
		rep := simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
			own := []byte{byte(rank)}
			got := BruckAllGather(ep, WorldRanks(p), rank, own, itemBytes)
			if len(got) != p {
				t.Errorf("P=%d rank %d: got %d items", p, rank, len(got))
				return
			}
			for j, it := range got {
				if b := it.([]byte); len(b) != 1 || b[0] != byte(j) {
					t.Errorf("P=%d rank %d: item %d = %v", p, rank, j, b)
				}
			}
		})
		// Cost model, Eq (1): ⌈log₂P⌉ rounds; each worker receives P-1
		// single-byte items.
		wantRounds := ceilLog2(p)
		if rep.MaxRounds() != wantRounds {
			t.Fatalf("P=%d: rounds=%d want %d", p, rep.MaxRounds(), wantRounds)
		}
		if rep.MaxBytesRecv() != int64(p-1) {
			t.Fatalf("P=%d: bytes=%d want %d", p, rep.MaxBytesRecv(), p-1)
		}
	}
}

func TestBruckAllGatherSubgroup(t *testing.T) {
	// Workers {1, 3, 4} of a 6-worker fabric gather among themselves; the
	// rest stay idle.
	ranks := []int{1, 3, 4}
	simnet.Run(6, unit, func(rank int, ep *simnet.Endpoint) {
		pos := -1
		for i, r := range ranks {
			if r == rank {
				pos = i
			}
		}
		if pos < 0 {
			return
		}
		got := BruckAllGather(ep, ranks, pos, []byte{byte(rank)}, itemBytes)
		for j, it := range got {
			if it.([]byte)[0] != byte(ranks[j]) {
				t.Errorf("rank %d: member %d item = %v", rank, j, it)
			}
		}
	})
}

func randomVectors(p, n int, seed int64) ([][]float32, []float32) {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float32, p)
	want := make([]float32, n)
	for w := range vecs {
		vecs[w] = make([]float32, n)
		for i := range vecs[w] {
			vecs[w][i] = float32(rng.NormFloat64())
			want[i] += vecs[w][i]
		}
	}
	return vecs, want
}

func assertAllReduced(t *testing.T, p int, got [][]float32, want []float32) {
	t.Helper()
	for w := 0; w < p; w++ {
		for i := range want {
			if math.Abs(float64(got[w][i]-want[i])) > 1e-3 {
				t.Fatalf("worker %d index %d: got %g want %g", w, i, got[w][i], want[i])
			}
		}
	}
}

func TestRingAllReduce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 14} {
		n := 101
		vecs, want := randomVectors(p, n, int64(p))
		rep := simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
			RingAllReduce(ep, vecs[rank])
		})
		assertAllReduced(t, p, vecs, want)
		if p > 1 {
			if got, want := rep.MaxRounds(), 2*(p-1); got != want {
				t.Fatalf("P=%d rounds=%d want %d", p, got, want)
			}
			// Volume ≈ 2n(P-1)/P·4 bytes (± block imbalance).
			wantBytes := float64(2*4*n) * float64(p-1) / float64(p)
			if math.Abs(float64(rep.MaxBytesRecv())-wantBytes) > float64(8*p) {
				t.Fatalf("P=%d bytes=%d want ≈%g", p, rep.MaxBytesRecv(), wantBytes)
			}
		}
	}
}

func TestRabenseifnerAllReduce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16} {
		n := 103 // deliberately not divisible by P
		vecs, want := randomVectors(p, n, int64(100+p))
		rep := simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
			RabenseifnerAllReduce(ep, vecs[rank])
		})
		assertAllReduced(t, p, vecs, want)
		if p > 1 {
			if got, want := rep.MaxRounds(), 2*ceilLog2(p); got != want {
				t.Fatalf("P=%d rounds=%d want %d", p, got, want)
			}
			wantBytes := float64(2*4*n) * float64(p-1) / float64(p)
			if math.Abs(float64(rep.MaxBytesRecv())-wantBytes) > float64(8*p) {
				t.Fatalf("P=%d bytes=%d want ≈%g", p, rep.MaxBytesRecv(), wantBytes)
			}
		}
	}
}

func ceilLog2(p int) int {
	l := 0
	for 1<<l < p {
		l++
	}
	return l
}
