package sparse

import (
	"sync"
	"testing"
)

// TestDensePoolSizing pins the densePool contract: a vector of the exact
// requested length, arbitrary contents, usable regardless of what sizes
// were pooled before.
func TestDensePoolSizing(t *testing.T) {
	s := densePool.Get(100)
	if len(s) != 100 {
		t.Fatalf("densePool.Get(100) returned len %d", len(s))
	}
	for i := range s {
		s[i] = float32(i)
	}
	densePool.Put(s)

	// A smaller request may reuse the pooled vector (same backing array).
	small := densePool.Get(10)
	if len(small) != 10 {
		t.Fatalf("densePool.Get(10) returned len %d", len(small))
	}
	densePool.Put(small)

	// A larger request must grow, never return a short vector.
	big := densePool.Get(1000)
	if len(big) != 1000 {
		t.Fatalf("densePool.Get(1000) returned len %d", len(big))
	}
	big[999] = 1 // must be addressable
	densePool.Put(big)
}

// TestDensePoolConcurrent hammers the pool from many goroutines under
// -race: hand-offs must be properly synchronized and vectors must never be
// shared between two concurrent holders.
func TestDensePoolConcurrent(t *testing.T) {
	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 64 + (w*31+r)%512
				s := densePool.Get(n)
				for i := range s {
					s[i] = float32(w)
				}
				for i := range s {
					if s[i] != float32(w) {
						t.Errorf("pooled vector shared between holders")
						return
					}
				}
				densePool.Put(s)
			}
		}(w)
	}
	wg.Wait()
}

// TestTopKScratchViaPool exercises the quickselect paths that draw their
// scratch from the dense pool, interleaved so pooled vectors of different
// sizes collide.
func TestTopKScratchViaPool(t *testing.T) {
	dense := make([]float32, 300)
	for i := range dense {
		dense[i] = float32((i*13)%37) - 18
	}
	for trial := 0; trial < 20; trial++ {
		c := FromDense(dense, 0, len(dense))
		kept, dropped := TopKChunk(c, 40)
		if kept.Len() != 40 || kept.Len()+dropped.Len() != c.Len() {
			t.Fatalf("trial %d: top-k split %d/%d of %d", trial, kept.Len(), dropped.Len(), c.Len())
		}
		thr := KthLargestAbs(dense, 25)
		sel := TopKDense(dense, 0, len(dense), 25)
		if sel.Len() != 25 {
			t.Fatalf("trial %d: TopKDense kept %d", trial, sel.Len())
		}
		for _, v := range sel.Val {
			if abs32(v) < thr {
				t.Fatalf("trial %d: selected |%v| below threshold %v", trial, v, thr)
			}
		}
	}
}
