package collective

import (
	"fmt"
	"testing"
	"time"

	"spardl/internal/comm"
	"spardl/internal/livenet"
	"spardl/internal/tcpnet"
)

// BenchmarkDenseAllReduce is one dense synchronization — all-reduce, then
// barrier — of 2¹⁸ elements, every byte really sent and read back: on
// livenet (in-memory queues, the codec half of the cost) and on loopback
// tcpnet (the socket path sync-tcp-dense times). Three shapes:
//
//   - rabenseifner-copy/P=8 copies the gradient into the output and runs the
//     in-place call on it, as callers of RabenseifnerAllReduce do;
//   - rabenseifner/P=8 reduces from the gradient into the output with no
//     copy, as sparsecoll.DenseAllReduce does on sync-tcp-dense;
//   - ring/P=7 is the same for the ring, which DenseAllReduce runs at every
//     P that is not a power of two and no workload exercises.
func BenchmarkDenseAllReduce(b *testing.B) {
	shapes := []struct {
		name string
		p    int
		sync func(ep comm.Endpoint, grad, out []float32)
	}{
		{"rabenseifner-copy", 8, func(ep comm.Endpoint, grad, out []float32) {
			copy(out, grad)
			RabenseifnerAllReduce(ep, out)
		}},
		{"rabenseifner", 8, RabenseifnerAllReduceInto},
		{"ring", 7, RingAllReduceInto},
	}
	for _, fb := range []struct {
		name string
		new  func() comm.Backend
	}{
		{"livenet", livenet.NewBackend},
		{"tcpnet-local", func() comm.Backend { return tcpnet.LocalBackend(30 * time.Second) }},
	} {
		for _, sh := range shapes {
			b.Run(fmt.Sprintf("%s/%s/P=%d", fb.name, sh.name, sh.p), func(b *testing.B) {
				benchDenseAllReduce(b, fb.new(), sh.p, sh.sync)
			})
		}
	}
}

func benchDenseAllReduce(b *testing.B, backend comm.Backend, p int, reduce func(ep comm.Endpoint, grad, out []float32)) {
	const n = 1 << 18
	b.SetBytes(4 * n)
	b.ReportAllocs()
	backend.Run(p, func(rank int, ep comm.Endpoint) {
		grad, out := denseGrad(rank, 0, n), make([]float32, n)
		sync := func() {
			reduce(ep, grad, out)
			ep.SyncClock()
		}
		sync() // warm the pools
		if rank == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			sync()
		}
	})
}
