package main

import (
	"math/bits"
	"runtime"
	"sync"
	"time"

	"spardl/internal/collective"
	"spardl/internal/comm"
	"spardl/internal/nn"
	"spardl/internal/pipeline"
	"spardl/internal/sparse"
	"spardl/internal/train"
	"spardl/internal/wire"
)

// Kernel replays: each calls one layer's public functions with the shapes
// and call counts one worker performs per synchronization. The workloads
// keep every core busy (P workers share them), so a replay runs one such
// worker per core at once and reports the time until the slowest finishes:
// one worker's cost under the load it meets in the workload, comparable
// with the span-derived per-worker times.

const (
	replayMinReps = 5
	replayMaxReps = 200
)

// replayBudgetMs is how long one replay keeps repeating its kernel; -quick
// lowers it so the smoke tests stay fast.
var replayBudgetMs = 250.0

// loadedTime runs the closures setup returns — one per core, at most p —
// released together, and returns the median wall milliseconds of a round.
func loadedTime(p int, setup func(w int) func()) float64 {
	fns := make([]func(), min(p, runtime.GOMAXPROCS(0)))
	for w := range fns {
		fns[w] = setup(w)
	}
	round := func() float64 {
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, fn := range fns {
			wg.Add(1)
			go func(fn func()) {
				defer wg.Done()
				fn()
			}(fn)
		}
		wg.Wait()
		return float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	round() // warm pools and arenas
	var ms []float64
	for total := 0.0; len(ms) < replayMaxReps && (len(ms) < replayMinReps || total < replayBudgetMs); {
		d := round()
		ms = append(ms, d)
		total += d
	}
	return median(ms)
}

// replayInput is what the replays need to know about a workload.
type replayInput struct {
	fabric    string
	p, n, k   int
	teams     int // 0: dense all-reduce, nothing sparse to replay
	buckets   bool
	grads     [][]float32
	recvBytes []int64 // rank 0's receives in one traced op, accounted bytes
	sendBytes []int64
}

func (in replayInput) byteFabric() bool { return in.fabric != "simnet" }

// selShape is one TopKDense call: select k of dense[lo:hi).
type selShape struct{ lo, hi, k int }

// selectShapes lists the block selections one worker performs per sync:
// m = P/d blocks of the vector (of each bucket, with buckets), each
// keeping L(k,d,P) = max(1, ⌊k/m⌋).
func (in replayInput) selectShapes() []selShape {
	if in.teams == 0 {
		return nil
	}
	m := in.p / in.teams
	var shapes []selShape
	add := func(base, size, k int) {
		part := sparse.NewPartition(size, m)
		for b := 0; b < m; b++ {
			lo, hi := part.Bounds(b)
			shapes = append(shapes, selShape{base + lo, base + hi, max(1, k/m)})
		}
	}
	if !in.buckets {
		add(0, in.n, in.k)
		return shapes
	}
	c := train.CaseByID(bucketCase)
	params := c.NewModel(1).Params()
	segs := nn.GradSegments(params)
	for _, b := range pipeline.Plan(segs, nn.GradReadyTimes(params, c.ComputeTime), in.k, pipeline.Config{}) {
		add(b.Lo, b.Size(), min(max(b.K, 1), b.Size()))
	}
	return shapes
}

// replaySelect times sparse.Arena.TopKDense over the per-sync shapes.
func replaySelect(in replayInput) (ms float64) {
	shapes := in.selectShapes()
	if len(shapes) == 0 {
		return 0
	}
	return loadedTime(in.p, func(w int) func() {
		ar, vec := sparse.NewArena(), in.grads[w]
		return func() {
			ar.Reset()
			for _, s := range shapes {
				ar.TopKDense(vec, s.lo, s.hi, s.k)
			}
		}
	})
}

// spreadChunk builds a chunk of e entries evenly spread over [lo, hi).
func spreadChunk(e, lo, hi int) *sparse.Chunk {
	e = min(e, hi-lo)
	c := &sparse.Chunk{Idx: make([]int32, e), Val: make([]float32, e)}
	for j := range c.Idx {
		c.Idx[j] = int32(lo + j*(hi-lo)/e)
		c.Val[j] = 1 + float32(j&7)
	}
	return c
}

// entries converts an accounted COO size to an entry count.
func entries(bytes int64) int { return int(bytes / 8) }

// replayMerge times the merge work one worker does per sync: every
// received message's entries are summed into the dense accumulator
// (Chunk.AddToDense, what SRS and the final all-gather do), and each
// Spar-All-Gather level merges two block-sized chunks (Arena.MergeAdd).
func replayMerge(in replayInput) (ms float64) {
	if in.teams == 0 || len(in.recvBytes) == 0 {
		return 0
	}
	blockK := max(1, in.k/(in.p/in.teams))
	levels := bits.Len(uint(in.teams)) - 1
	return loadedTime(in.p, func(w int) func() {
		ar := sparse.NewArena()
		acc := make([]float32, in.n)
		var got []*sparse.Chunk
		for _, b := range in.recvBytes {
			if e := entries(b); e > 0 {
				got = append(got, spreadChunk(e, 0, in.n))
			}
		}
		x, y := spreadChunk(blockK, 0, in.n/2), spreadChunk(blockK, in.n/4, in.n)
		return func() {
			ar.Reset()
			for _, c := range got {
				c.AddToDense(acc)
			}
			for l := 0; l < levels; l++ {
				ar.MergeAdd(x, y)
			}
		}
	})
}

// messageChunks splits each sent message into block-sized chunks the way
// a sending bag holds them.
func (in replayInput) messageChunks() [][]*sparse.Chunk {
	m := in.p / in.teams
	blockK := max(1, in.k/m)
	part := sparse.NewPartition(in.n, m)
	var msgs [][]*sparse.Chunk
	for _, b := range in.sendBytes {
		var cs []*sparse.Chunk
		for e, blk := entries(b), 0; e > 0; e, blk = e-blockK, blk+1 {
			lo, hi := part.Bounds(blk % m)
			cs = append(cs, spreadChunk(min(e, blockK), lo, hi))
		}
		if len(cs) > 0 {
			msgs = append(msgs, cs)
		}
	}
	return msgs
}

// replayWire times wire.AppendEncode and wire.DecodeArena over the chunks
// one worker sends per sync. By-reference fabrics never encode.
func replayWire(in replayInput) (encMs, decMs float64) {
	if in.teams == 0 || !in.byteFabric() || len(in.sendBytes) == 0 {
		return 0, 0
	}
	msgs := in.messageChunks()
	encMs = loadedTime(in.p, func(int) func() {
		var buf []byte
		return func() {
			for _, cs := range msgs {
				for _, c := range cs {
					lo, hi := wire.Range(c)
					buf, _ = wire.AppendEncode(buf[:0], c, lo, hi)
				}
			}
		}
	})
	decMs = loadedTime(in.p, func(int) func() {
		ar := sparse.NewArena()
		var bufs [][]byte
		for _, cs := range msgs {
			for _, c := range cs {
				lo, hi := wire.Range(c)
				b, _ := wire.Encode(c, lo, hi)
				bufs = append(bufs, b)
			}
		}
		return func() {
			ar.Reset()
			for _, b := range bufs {
				if _, err := wire.DecodeArena(ar, b); err != nil {
					panic(err) // the buffers were produced by wire.Encode just above
				}
			}
		}
	})
	return encMs, decMs
}

// replayPayload times comm.AppendPayload and comm.UnmarshalPayloadArena
// over the messages one worker sends per sync: chunk lists for the sparse
// reducers, []float32 windows for the dense all-reduce.
func replayPayload(in replayInput) (marshalMs, unmarshalMs float64) {
	if !in.byteFabric() || len(in.sendBytes) == 0 {
		return 0, 0
	}
	var payloads []any
	if in.teams == 0 {
		for _, b := range in.sendBytes {
			payloads = append(payloads, make([]float32, b/4))
		}
	} else {
		for _, cs := range in.messageChunks() {
			payloads = append(payloads, cs)
		}
	}
	marshalMs = loadedTime(in.p, func(int) func() {
		var buf []byte
		return func() {
			for _, pl := range payloads {
				buf = comm.AppendPayload(buf[:0], pl)
			}
		}
	})
	unmarshalMs = loadedTime(in.p, func(int) func() {
		ar := sparse.NewArena()
		var bufs [][]byte
		for _, pl := range payloads {
			bufs = append(bufs, comm.MarshalPayload(pl))
		}
		return func() {
			ar.Reset()
			for _, b := range bufs {
				if _, err := comm.UnmarshalPayloadArena(ar, b); err != nil {
					panic(err) // the buffers were produced by MarshalPayload just above
				}
			}
		}
	})
	return marshalMs, unmarshalMs
}

const collectiveReps = 30

// runCollective times body alone on the workload's fabric: every rank
// runs it collectiveReps times between barriers, and the figure is rank
// 0's median barrier-to-barrier time.
func runCollective(fabric string, p int, setup func(rank int, ep comm.Endpoint) func()) float64 {
	var ms []float64
	_, err := runOn(fabric, nil, p, func(rank int, ep comm.Endpoint) {
		body := setup(rank, ep)
		for i := 0; i < 3; i++ {
			body()
			ep.SyncClock()
		}
		for i := 0; i < collectiveReps; i++ {
			t := time.Now()
			body()
			ep.SyncClock()
			if rank == 0 {
				ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
			}
		}
	})
	if err != nil {
		return 0 // a replay that could not run reports nothing rather than failing the pass
	}
	return median(ms)
}

// replayBruck runs the team-internal Bruck all-gather of block-sized
// chunks — SparDL's phase 3 — alone on the workload's fabric.
func replayBruck(in replayInput) float64 {
	if in.teams == 0 {
		return 0
	}
	m := in.p / in.teams
	blockK := max(1, in.k/m)
	part := sparse.NewPartition(in.n, m)
	return runCollective(in.fabric, in.p, func(rank int, ep comm.Endpoint) func() {
		team, pos := rank/m, rank%m
		ranks := make([]int, m)
		for j := range ranks {
			ranks[j] = team*m + j
		}
		lo, hi := part.Bounds(pos)
		own := spreadChunk(blockK, lo, hi)
		ar := sparse.NewArena()
		tx := wire.Transport{Arena: ar}
		return func() {
			ar.Reset()
			collective.BruckAllGatherAlloc(ep, ranks, pos, tx.PackItem(own), tx.ItemBytes, ar)
		}
	})
}

// replayDenseAllReduce runs the dense all-reduce the Dense reducer picks
// for this P alone on the workload's fabric.
func replayDenseAllReduce(in replayInput) float64 {
	if in.teams != 0 {
		return 0
	}
	return runCollective(in.fabric, in.p, func(rank int, ep comm.Endpoint) func() {
		vec := make([]float32, in.n)
		return func() {
			copy(vec, in.grads[rank])
			if in.p&(in.p-1) == 0 {
				collective.RabenseifnerAllReduce(ep, vec)
			} else {
				collective.RingAllReduce(ep, vec)
			}
		}
	})
}

// replayBackward times the parts of a training step no decorator can
// see: loss.Backward() and SGD.Step, one batch per replica.
func replayBackward(c *train.Case, p, batch int) (bwdMs, sgdMs float64) {
	type replica struct {
		model nn.Model
		opt   *nn.SGD
		b     *nn.Batch
		grad  []float32
	}
	reps := make([]replica, p)
	for w := range reps {
		model := c.NewModel(1)
		reps[w] = replica{model: model, opt: nn.NewSGD(c.LR, c.Momentum),
			b: c.NewData(1).TrainBatch(w, 0, batch), grad: make([]float32, nn.ParamCount(model.Params()))}
	}
	// Backward cannot run without a forward pass before it, so each worker
	// times only the Backward half of every fwd+bwd pair.
	var mu sync.Mutex
	var bwd []float64
	loadedTime(p, func(w int) func() {
		r := reps[w]
		return func() {
			nn.ZeroGrads(r.model.Params())
			loss, _ := r.model.Loss(r.b)
			t := time.Now()
			loss.Backward()
			d := float64(time.Since(t).Nanoseconds()) / 1e6
			mu.Lock()
			bwd = append(bwd, d)
			mu.Unlock()
		}
	})
	sgdMs = loadedTime(p, func(w int) func() {
		r := reps[w]
		nn.FlattenGrads(r.model.Params(), r.grad)
		for i := range r.grad {
			r.grad[i] *= 1e-6 // keep the replayed updates from diverging
		}
		return func() { r.opt.Step(r.model.Params(), r.grad) }
	})
	return median(bwd), sgdMs
}
