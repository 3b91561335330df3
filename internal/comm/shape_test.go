package comm_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/livenet"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
	"spardl/internal/tcpnet"
)

// TestShapedMatchesSimnet holds comm.Shaped to simnet's α-β clock: on a
// shaped livenet and a shaped loopback tcpnet, a reducer computes the bits
// the unshaped fabric computes, and rank 0's median wall seconds per sync
// lie within [0.95, 1.5]× simnet's virtual seconds per sync on the same
// profile. α is large enough that real compute is noise next to it: one
// row is α-bound (SparDL d = 1, a few small messages), one β-bound (dense
// all-reduce, each message ms of β). A Recv that does not park reads far
// below the band; one that parks twice (SendRecv, which the dense schedule
// runs on), or a barrier token that parks, reads far above.
func TestShapedMatchesSimnet(t *testing.T) {
	const p, syncs = 4, 7
	rows := []struct {
		name    string
		net     comm.Profile
		n, k    int
		factory sparsecoll.Factory
	}{
		{"spardl-d1", comm.Profile{Name: "alpha", Alpha: 5e-3, Beta: 8e-9}, 1 << 10, 10, core.NewFactory(core.Options{})},
		{"dense", comm.Profile{Name: "beta", Alpha: 2e-3, Beta: 2e-6}, 1 << 12, 0, sparsecoll.NewDense},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			simOut, simSync := runSyncs(t, simnet.Backend(row.net), row.factory, p, row.n, row.k, syncs)
			for _, b := range []struct {
				name  string
				inner func() comm.Backend
			}{
				{"livenet", livenet.NewBackend},
				{"tcpnet-local", func() comm.Backend { return tcpnet.LocalBackend(10 * time.Second) }},
			} {
				plain, _ := runSyncs(t, b.inner(), row.factory, p, row.n, row.k, syncs)
				sameBits(t, b.name+" vs simnet", plain, simOut)
				// Load on the host only ever adds wall time, so the fastest
				// of up to three shaped runs is the measurement.
				best := math.Inf(1)
				for try := 0; try < 3 && best > 1.5; try++ {
					shaped, wall := runSyncs(t, comm.Shaped(b.inner(), row.net), row.factory, p, row.n, row.k, syncs)
					sameBits(t, b.name+" shaped vs unshaped", shaped, plain)
					best = min(best, wall/simSync)
					t.Logf("%s: %.2f ms of wall per sync, simnet %.2f ms: %.3f×", b.name, wall*1e3, simSync*1e3, wall/simSync)
				}
				if best < 0.95 || best > 1.5 {
					t.Errorf("%s: wall per sync is %.3f× simnet's, want [0.95, 1.5]", b.name, best)
				}
			}
		})
	}
	t.Run("a park on the stream is exposed communication", func(t *testing.T) {
		net := rows[0].net
		rep := mustRun(t, comm.Shaped(livenet.NewBackend(), net), 2, func(rank int, ep comm.Endpoint) {
			ep.Overlap(func(s comm.Endpoint) {
				s.Send(1-rank, 1.0, 8)
				s.Recv(1 - rank)
			})
			ep.Join()
		})
		for rank, st := range rep.PerWorker {
			if st.CommTime < net.Alpha || st.ExposedComm+st.OverlapSaved < net.Alpha || st.ExposedComm < net.Alpha/2 {
				t.Errorf("rank %d: a parked stream Recv of α = %gs booked %+v", rank, net.Alpha, st)
			}
		}
	})
	t.Run("simnet is not the link runtime", func(t *testing.T) {
		net := rows[0].net
		_, panicked := runBounded(t, comm.Shaped(simnet.Backend(net), net), 2, func(int, comm.Endpoint) {
			t.Error("a worker ran on Shaped(simnet)")
		})
		if !strings.Contains(fmt.Sprint(panicked), "comm.Shaped") {
			t.Fatalf("Shaped(simnet) ran: %v", panicked)
		}
	})
}

// runSyncs runs syncs reductions with a barrier after each and returns
// every rank's output of every sync and rank 0's median seconds per sync,
// barrier to barrier, on the backend's clock.
func runSyncs(t *testing.T, b comm.Backend, factory sparsecoll.Factory, p, n, k, syncs int) ([][][]float32, float64) {
	t.Helper()
	outs := make([][][]float32, p)
	var per []float64
	mustRun(t, b, p, func(rank int, ep comm.Endpoint) {
		r := factory(p, rank, n, k)
		rng := rand.New(rand.NewSource(int64(rank + 1)))
		grads := make([][]float32, syncs)
		for s := range grads {
			grads[s], outs[rank] = make([]float32, n), append(outs[rank], make([]float32, n))
			for i := range grads[s] {
				grads[s][i] = float32(rng.NormFloat64())
			}
		}
		ep.SyncClock()
		last := ep.Clock()
		for s := 0; s < syncs; s++ {
			r.ReduceInto(ep, grads[s], outs[rank][s])
			ep.SyncClock()
			if rank == 0 {
				now := ep.Clock()
				per = append(per, now-last)
				last = now
			}
		}
	})
	sort.Float64s(per)
	return outs, per[len(per)/2]
}

func sameBits(t *testing.T, what string, got, want [][][]float32) {
	t.Helper()
	for rank := range want {
		for s := range want[rank] {
			for i, w := range want[rank][s] {
				if g := got[rank][s][i]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("%s: rank %d sync %d [%d] = %g, want %g", what, rank, s, i, g, w)
				}
			}
		}
	}
}
