package collective

import (
	"testing"
	"time"

	"spardl/internal/comm"
	"spardl/internal/livenet"
	"spardl/internal/tcpnet"
)

// BenchmarkDenseAllReduce is one dense synchronization — input copy,
// Rabenseifner all-reduce, barrier — of 2¹⁸ elements across 8 workers,
// every byte really sent and read back: on livenet (in-memory queues, the
// codec half of the cost) and on loopback tcpnet (the socket send path
// sync-tcp-dense times, each frame written from the sender's vector).
func BenchmarkDenseAllReduce(b *testing.B) {
	for _, fb := range []struct {
		name string
		new  func() comm.Backend
	}{
		{"livenet", livenet.NewBackend},
		{"tcpnet-local", func() comm.Backend { return tcpnet.LocalBackend(30 * time.Second) }},
	} {
		b.Run(fb.name, func(b *testing.B) { benchDenseAllReduce(b, fb.new()) })
	}
}

func benchDenseAllReduce(b *testing.B, backend comm.Backend) {
	const p, n = 8, 1 << 18
	b.SetBytes(4 * n)
	b.ReportAllocs()
	backend.Run(p, func(rank int, ep comm.Endpoint) {
		grad, vec := denseGrad(rank, 0, n), make([]float32, n)
		sync := func() {
			copy(vec, grad)
			RabenseifnerAllReduce(ep, vec)
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
