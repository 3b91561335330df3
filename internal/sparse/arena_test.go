package sparse

import (
	"math/rand"
	"sync"
	"testing"
)

func sameChunk(a, b *Chunk) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

// TestArenaGetRecycleReuse pins the freelist contract: a recycled chunk is
// handed out again by a Get of compatible size within the same epoch, and
// the reuse does not alias any still-live chunk.
func TestArenaGetRecycleReuse(t *testing.T) {
	a := NewArena()
	a.Reset()
	c1 := a.Get(100)
	c1.Idx = append(c1.Idx, 1, 2, 3)
	c1.Val = append(c1.Val, 1, 2, 3)
	live := a.Get(100)
	live.Idx = append(live.Idx, 9)
	live.Val = append(live.Val, 9)

	a.Recycle(c1)
	if a.Owns(c1) {
		t.Fatal("recycled chunk still reported as owned")
	}
	c2 := a.Get(80) // same pow2 class as 100 → must reuse c1
	if c2 != c1 {
		t.Fatalf("expected freelist reuse of the recycled chunk")
	}
	if c2.Len() != 0 {
		t.Fatalf("reused chunk not reset: len=%d", c2.Len())
	}
	if !a.Owns(c2) {
		t.Fatal("reused chunk must be owned again")
	}
	// Filling the reused chunk must not disturb the live one.
	for i := 0; i < 80; i++ {
		c2.Idx = append(c2.Idx, int32(i))
		c2.Val = append(c2.Val, float32(i))
	}
	if live.Len() != 1 || live.Idx[0] != 9 || live.Val[0] != 9 {
		t.Fatalf("live chunk corrupted by freelist reuse: %v %v", live.Idx, live.Val)
	}
}

// TestArenaDoubleRecyclePanics pins the misuse guard.
func TestArenaDoubleRecyclePanics(t *testing.T) {
	a := NewArena()
	a.Reset()
	c := a.Get(8)
	a.Recycle(c)
	defer func() {
		if recover() == nil {
			t.Fatal("double recycle did not panic")
		}
	}()
	a.Recycle(c)
}

// TestArenaEpochResetClearsOwnership: after Reset, chunks from earlier
// epochs are no longer owned, recycling them is a no-op (not a panic), and
// their storage is only reused after a full quarantine epoch.
func TestArenaEpochResetClearsOwnership(t *testing.T) {
	a := NewArena()
	a.Reset()
	old := a.Get(16)
	old.Idx = append(old.Idx, 7)
	old.Val = append(old.Val, 7)

	a.Reset()
	if a.Owns(old) {
		t.Fatal("chunk survived epoch reset as owned")
	}
	a.Recycle(old) // stale recycle must be ignored
	if a.Get(16) == old {
		t.Fatal("stale recycle fed the freelist")
	}
	// One epoch of quarantine: during this epoch the old storage must not
	// be reused (peers may still read it on reference-passing backends).
	quarantined := a.Get(16)
	if &quarantined.Idx[:1][0] == &old.Idx[:1][0] {
		t.Fatal("storage reused during quarantine epoch")
	}
	if old.Idx[0] != 7 || old.Val[0] != 7 {
		t.Fatal("quarantined storage overwritten")
	}

	// After the next Reset the old epoch's slab may be recycled; the data
	// is then legitimately gone. Just ensure allocation still works.
	a.Reset()
	fresh := a.Get(16)
	fresh.Idx = append(fresh.Idx, 1)
	if !a.Owns(fresh) {
		t.Fatal("fresh chunk not owned")
	}
}

// TestArenaRecycleForeignAndHeap: recycling chunks an arena does not own
// (heap chunks, wrapped headers, other arenas' chunks) is a no-op.
func TestArenaRecycleForeignAndHeap(t *testing.T) {
	a, b := NewArena(), NewArena()
	a.Reset()
	b.Reset()
	heap := chunkOf(1, 1)
	a.Recycle(heap)
	foreign := b.Get(8)
	a.Recycle(foreign)
	if !b.Owns(foreign) {
		t.Fatal("foreign recycle disturbed the owning arena")
	}
	w := a.Wrap(heap.Idx, heap.Val)
	a.Recycle(w) // storage not arena-owned: must be ignored
	if got := a.Get(1); got == w {
		t.Fatal("wrap header entered the freelist")
	}
}

// TestArenaOpsMatchHeapOps: every arena-allocating operation must produce
// the same entries as its heap twin, across randomized inputs and epochs.
func TestArenaOpsMatchHeapOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := NewArena()
	randChunk := func(n, span int) *Chunk {
		m := map[int32]float32{}
		for len(m) < n {
			m[int32(rng.Intn(span))] = float32(rng.NormFloat64())
		}
		return FromMap(m)
	}
	for epoch := 0; epoch < 50; epoch++ {
		a.Reset()
		x := randChunk(1+rng.Intn(64), 500)
		y := randChunk(1+rng.Intn(64), 500)
		if got, want := a.MergeAdd(x, y), MergeAdd(x, y); !sameChunk(got, want) {
			t.Fatalf("epoch %d: arena MergeAdd diverges", epoch)
		}
		var many []*Chunk
		for i := 0; i < 2+rng.Intn(5); i++ {
			many = append(many, randChunk(1+rng.Intn(64), 500))
		}
		if got, want := a.MergeAddAll(many), MergeAddAll(many); !sameChunk(got, want) {
			t.Fatalf("epoch %d: arena MergeAddAll diverges", epoch)
		}
		k := 1 + rng.Intn(x.Len())
		gk, gd := a.TopKChunk(x, k)
		wk, wd := TopKChunk(x, k)
		if !sameChunk(gk, wk) || !sameChunk(gd, wd) {
			t.Fatalf("epoch %d: arena TopKChunk diverges", epoch)
		}
		dense := make([]float32, 200)
		for i := range dense {
			if rng.Intn(3) == 0 {
				dense[i] = float32(rng.NormFloat64())
			}
		}
		if got, want := a.TopKDense(dense, 10, 190, 17), TopKDense(dense, 10, 190, 17); !sameChunk(got, want) {
			t.Fatalf("epoch %d: arena TopKDense diverges", epoch)
		}
		if got, want := a.FromDense(dense, 0, len(dense)), FromDense(dense, 0, len(dense)); !sameChunk(got, want) {
			t.Fatalf("epoch %d: arena FromDense diverges", epoch)
		}
		thr := float32(0.5)
		ak, ad := a.ThresholdChunk(x, thr)
		hk, hd := ThresholdChunk(x, thr)
		if !sameChunk(ak, hk) || !sameChunk(ad, hd) {
			t.Fatalf("epoch %d: arena ThresholdChunk diverges", epoch)
		}
		if got, want := a.ThresholdDense(dense, 0, len(dense), thr), ThresholdDense(dense, 0, len(dense), thr); !sameChunk(got, want) {
			t.Fatalf("epoch %d: arena ThresholdDense diverges", epoch)
		}
		part := NewPartition(500, 7)
		gs := a.Split(part, x)
		ws := part.Split(x)
		for b := range ws {
			if !sameChunk(gs[b], ws[b]) {
				t.Fatalf("epoch %d: arena Split diverges at block %d", epoch, b)
			}
		}
	}
}

// TestMergeAddInto checks the in-place backward merge against the
// allocating merge, including capacity-overflow fallback and duplicates.
func TestMergeAddInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewArena()
	for trial := 0; trial < 200; trial++ {
		a.Reset()
		nd, ns := 1+rng.Intn(40), 1+rng.Intn(40)
		mk := func(n int) *Chunk {
			m := map[int32]float32{}
			for len(m) < n {
				m[int32(rng.Intn(120))] = float32(rng.NormFloat64())
			}
			return FromMap(m)
		}
		dstSrc, src := mk(nd), mk(ns)
		dst := a.Get(nd + rng.Intn(64)) // varying spare capacity
		dst.Idx = append(dst.Idx, dstSrc.Idx...)
		dst.Val = append(dst.Val, dstSrc.Val...)
		want := MergeAdd(dstSrc, src)
		got := a.MergeAddInto(dst, src)
		if !sameChunk(got, want) {
			t.Fatalf("trial %d: MergeAddInto diverges: got %v/%v want %v/%v",
				trial, got.Idx, got.Val, want.Idx, want.Val)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestMergeAddAllWarmAllocFree: on a warm arena, MergeAddAll makes no heap
// allocation on any of its three paths — the dense scatter-add, the k-way
// merge over a dense input and the sparse k-way merge.
func TestMergeAddAllWarmAllocFree(t *testing.T) {
	evens, odds := &Chunk{}, &Chunk{}
	for i := int32(0); i < 2*denseMinSpan; i += 2 {
		evens.Idx, evens.Val = append(evens.Idx, i), append(evens.Val, 1)
		odds.Idx, odds.Val = append(odds.Idx, i+1), append(odds.Val, 2)
	}
	paths := []struct {
		name      string
		in        []*Chunk
		wantDense bool
	}{
		{"dense-scatter", []*Chunk{evens, odds}, true},
		{"kway-any", []*Chunk{denseBlockOf(0, 1, 2, 3), chunkOf(2, 1, 700, 3)}, false},
		{"kway", []*Chunk{chunkOf(1, 1, 9, 2), chunkOf(3, 1, 9, 4), nil, chunkOf(500, 5)}, false},
	}
	for _, tc := range paths {
		a := NewArena()
		if got := a.MergeAddAll(tc.in); got.IsDense() != tc.wantDense {
			t.Fatalf("%s: merge result dense=%v, want %v", tc.name, got.IsDense(), tc.wantDense)
		}
		for i := 0; i < 3; i++ {
			a.Reset()
			a.MergeAddAll(tc.in)
		}
		allocs := testing.AllocsPerRun(20, func() {
			a.Reset()
			a.MergeAddAll(tc.in)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per warm MergeAddAll, want 0", tc.name, allocs)
		}
	}
}

// TestArenaConcurrentWorkers runs W workers, each with its own arena,
// exchanging chunks over channels in a ring with a barrier per epoch —
// the communication pattern of the reduce collectives — under -race.
// Receivers read chunks allocated from the sender's arena while senders
// keep allocating; the epoch quarantine must keep every read safe.
func TestArenaConcurrentWorkers(t *testing.T) {
	const workers = 4
	const epochs = 60
	chans := make([]chan *Chunk, workers)
	for i := range chans {
		chans[i] = make(chan *Chunk, 1)
	}
	var wg sync.WaitGroup
	epochDone := make([]*sync.WaitGroup, epochs)
	for e := range epochDone {
		epochDone[e] = &sync.WaitGroup{}
		epochDone[e].Add(workers)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := NewArena()
			dense := make([]float32, 512)
			for e := 0; e < epochs; e++ {
				a.Reset()
				for i := range dense {
					dense[i] = float32((i*31+w*7+e)%17) - 8
				}
				mine := a.TopKDense(dense, 0, len(dense), 64)
				chans[(w+1)%workers] <- mine
				got := <-chans[w]
				merged := a.MergeAdd(mine, got)
				kept, dropped := a.TopKChunk(merged, 32)
				a.Recycle(merged)
				if kept.Len()+dropped.Len() != merged.Len() {
					t.Errorf("worker %d epoch %d: top-k split lost entries", w, e)
				}
				a.Recycle(kept)
				a.Recycle(dropped)
				epochDone[e].Done()
				epochDone[e].Wait() // barrier: all workers end the epoch together
			}
		}(w)
	}
	wg.Wait()
}

// TestDedicatedSlabsWholeSlabLengths: an oversize request gets a dedicated
// slab of whole slab lengths, not the next power of two; the slab comes
// back (after the epoch of quarantine) only for a request of the same
// rounded size; and however the sizes inside one power-of-two class
// change, the class never holds more slabs than it has had in use at once.
func TestDedicatedSlabsWholeSlabLengths(t *testing.T) {
	a := NewArena()
	a.Reset()
	const frame = 1<<19 + 5 // a dense frame: 512 KiB of values plus tag and count
	b := a.Bytes(frame)
	if cap(b) != frame {
		t.Fatalf("capacity %d, want exactly %d", cap(b), frame)
	}
	if got, want := len(a.buf.bigCur[0]), 5*slabBytes; got != want {
		t.Fatalf("dedicated slab of %d bytes, want %d (whole slab lengths)", got, want)
	}
	first := &a.buf.bigCur[0][0]
	a.Reset()
	a.Reset() // out of quarantine
	if again := a.Bytes(frame + 100); &again[:1][0] != first {
		t.Fatal("a request of the same rounded size did not reuse the slab")
	}
	if other := a.Bytes(6 * slabBytes); &other[:1][0] == first {
		t.Fatal("a request of another size reused the slab")
	}

	// Sizes 5, 6, 7 and 8 slab lengths share one class; requesting each in
	// turn, two at a time, keeps at most two slabs of the class alive.
	a = NewArena()
	class := ceilLog2(5 * slabBytes)
	for epoch := 0; epoch < 40; epoch++ {
		a.Reset()
		a.Bytes((5 + epoch%4) * slabBytes)
		a.Bytes((5 + (epoch+1)%4) * slabBytes)
		held := len(a.buf.bigFree[class]) + len(a.buf.bigCur) + len(a.buf.bigPrev)
		if held > 4 {
			t.Fatalf("epoch %d: %d slabs of the class held, want at most 4 (two in use, two quarantined)", epoch, held)
		}
	}
}
