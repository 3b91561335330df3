package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/livenet"
	"spardl/internal/nn"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
)

// runCopyAll is Schedule.Run as it stood before one-tensor buckets were
// reduced where their gradients live: every bucket's segments are copied
// into flat and the bucket is reduced from flat[Lo:Hi]. It is the oracle
// TestRunMatchesCopyAll holds Run to.
func runCopyAll(s *Schedule, ep comm.Endpoint, segs []nn.Segment, flat, out []float32) {
	elapsed := 0.0
	for i, b := range s.Buckets {
		if d := b.Ready - elapsed; d > 0 {
			ep.Compute(d)
			elapsed = b.Ready
		}
		for si := b.First; si <= b.Last; si++ {
			segs[si].CopyGrad(flat)
		}
		r, grad := s.Reducers[i], flat[b.Lo:b.Hi]
		ep.Overlap(func(ep comm.Endpoint) {
			r.ReduceInto(ep, grad, out)
		})
	}
	ep.Join()
}

// flatSentinel marks flat values Run has not written.
var flatSentinel = math.Float32frombits(0x7fa5a5a5)

// pipelineTrace is what one run of a schedule leaves behind, per rank and
// iteration: the output, every bucket's residual, and the statistics.
type pipelineTrace struct {
	outs, residuals [][][]float32 // [rank][iter]
	stats           []comm.Stats  // per rank, after the last iteration
	clocks          []float64
}

// runPipeline drives a 4-worker schedule for iters iterations on backend
// with Run, or runCopyAll when copyAll is set, checking after each what it
// left in flat. Every tensor's gradient is redrawn each iteration from
// (rank, iteration), with heavy tails and one +Inf so residuals carry
// non-finite values too.
func runPipeline(t *testing.T, backend comm.Backend, factory sparsecoll.Factory, cfg Config, iters int, copyAll bool) pipelineTrace {
	const p, k = 4, 60
	run := (*Schedule).Run
	if copyAll {
		run = runCopyAll
	}
	tr := pipelineTrace{outs: make([][][]float32, p), residuals: make([][][]float32, p)}
	rep := backend.Run(p, func(rank int, ep comm.Endpoint) {
		m := nn.NewMLPClassifier(rand.New(rand.NewSource(3)), []int{32, 64, 48, 10})
		segs := nn.GradSegments(m.Params())
		ready := nn.GradReadyTimes(m.Params(), 0.05)
		sched := NewSchedule(factory, p, rank, k, segs, ready, cfg)
		n := nn.ParamCount(m.Params())
		flat, out := make([]float32, n), make([]float32, n)
		for it := 0; it < iters; it++ {
			rng := rand.New(rand.NewSource(int64(1000*rank + it)))
			for _, sg := range segs {
				for i := range sg.Param.Grad {
					v := rng.NormFloat64()
					sg.Param.Grad[i] = float32(v * v * v)
				}
			}
			if it == 4 {
				segs[rank%len(segs)].Param.Grad[0] = float32(math.Inf(1))
			}
			for i := range flat {
				flat[i] = flatSentinel
			}
			run(sched, ep, segs, flat, out)
			checkFlat(t, sched, segs, flat, copyAll)
			tr.outs[rank] = append(tr.outs[rank], append([]float32(nil), out...))
			var res []float32
			for _, r := range sched.Reducers {
				res = append(res, r.Residual()...)
			}
			tr.residuals[rank] = append(tr.residuals[rank], res)
			ep.SyncClock()
		}
	})
	tr.stats, tr.clocks = rep.PerWorker, rep.Clocks
	return tr
}

// checkFlat: a one-tensor bucket leaves flat untouched unless copyAll; a
// fused bucket holds its tensors' gradients there.
func checkFlat(t *testing.T, s *Schedule, segs []nn.Segment, flat []float32, copyAll bool) {
	for _, b := range s.Buckets {
		for si := b.First; si <= b.Last; si++ {
			sg := segs[si]
			for i, g := range sg.Param.Grad {
				want := g
				if b.First == b.Last && !copyAll {
					want = flatSentinel
				}
				if got := flat[sg.Lo+i]; math.Float32bits(got) != math.Float32bits(want) {
					t.Errorf("bucket [%d,%d) with tensors %d..%d: flat[%d] = %08x, want %08x",
						b.Lo, b.Hi, b.First, b.Last, sg.Lo+i, math.Float32bits(got), math.Float32bits(want))
					return
				}
			}
		}
	}
}

func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRunMatchesCopyAll: reducing one-tensor buckets from the tensors'
// own gradients changes nothing — outputs, every bucket's residual and the
// statistics are bit-equal to copying every gradient into flat first, for
// the per-layer schedule, a fused one and a single bucket, on the virtual
// and the wall-clock fabric. On simnet the statistics and clocks are the
// virtual α-β accounting and compare in full; on livenet the times are
// measured, so rounds, bytes and messages compare. Every row runs the
// overlapped schedule, the only one Run has; the names keep their
// noOverlap=false suffix so that they stay comparable with earlier runs.
func TestRunMatchesCopyAll(t *testing.T) {
	const iters = 10
	factory := core.NewFactory(core.Options{})
	for _, backend := range []comm.Backend{simnet.Backend(comm.Ethernet), livenet.NewBackend()} {
		for _, bucketBytes := range []int{0, 2048, 1 << 30} {
			cfg := Config{BucketBytes: bucketBytes}
			name := fmt.Sprintf("%s/bucketBytes=%d/noOverlap=false", backend.Name(), bucketBytes)
			t.Run(name, func(t *testing.T) {
				want := runPipeline(t, backend, factory, cfg, iters, true)
				got := runPipeline(t, backend, factory, cfg, iters, false)
				for rank := range want.outs {
					for it := 0; it < iters; it++ {
						if !sameFloats(got.outs[rank][it], want.outs[rank][it]) {
							t.Fatalf("rank %d iteration %d: output differs from the copy-everything schedule", rank, it)
						}
						if !sameFloats(got.residuals[rank][it], want.residuals[rank][it]) {
							t.Fatalf("rank %d iteration %d: residuals differ from the copy-everything schedule", rank, it)
						}
					}
					g, w := got.stats[rank], want.stats[rank]
					if backend.Name() == "livenet" {
						g = comm.Stats{Rounds: g.Rounds, BytesRecv: g.BytesRecv, BytesSent: g.BytesSent, MsgsSent: g.MsgsSent}
						w = comm.Stats{Rounds: w.Rounds, BytesRecv: w.BytesRecv, BytesSent: w.BytesSent, MsgsSent: w.MsgsSent}
					} else if math.Float64bits(got.clocks[rank]) != math.Float64bits(want.clocks[rank]) {
						t.Fatalf("rank %d: clock %v, copy-everything %v", rank, got.clocks[rank], want.clocks[rank])
					}
					if g != w {
						t.Fatalf("rank %d: stats %+v, copy-everything %+v", rank, g, w)
					}
				}
			})
		}
	}
}
