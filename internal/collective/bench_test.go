package collective

import (
	"testing"

	"spardl/internal/comm"
	"spardl/internal/livenet"
)

// BenchmarkDenseAllReduce is one dense synchronization — input copy,
// Rabenseifner all-reduce, barrier — of 2¹⁸ elements across 8 livenet
// workers: every byte is really encoded, queued and read back, without
// loopback TCP's syscalls on top.
func BenchmarkDenseAllReduce(b *testing.B) {
	const p, n = 8, 1 << 18
	b.SetBytes(4 * n)
	b.ReportAllocs()
	livenet.NewBackend().Run(p, func(rank int, ep comm.Endpoint) {
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
