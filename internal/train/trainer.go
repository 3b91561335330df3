package train

import (
	"fmt"
	"sync"
	"time"

	"spardl/internal/comm"
	"spardl/internal/data"
	"spardl/internal/nn"
	"spardl/internal/pipeline"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
)

// Config describes one distributed training run.
type Config struct {
	Case    *Case
	P       int     // number of workers
	KRatio  float64 // k/n density (the paper's sparsification knob); 1 = dense k
	Network simnet.Profile
	Factory sparsecoll.Factory
	Iters   int
	Seed    int64
	// EvalEvery controls metric sampling (iterations); 0 disables interior
	// evaluation and records only the final point.
	EvalEvery int
	// EvalBatch is the held-out batch size (default 256 for dense tasks,
	// 64 for sequence tasks).
	EvalBatch int
	// Backend selects the communication substrate the workers run on.
	// nil (the default) uses the α-β simulator with the Network profile;
	// livenet.NewBackend() runs the same iterations over the real
	// concurrent byte-level transport, in which case every time-valued
	// result field holds measured wall seconds and Network is ignored.
	Backend comm.Backend
	// ComputeSkew optionally assigns per-worker compute-speed multipliers
	// (len P) to model a heterogeneous cluster — the paper's future-work
	// extension (Section VI): synchronous all-reduce waits for the slowest
	// worker, so skew>1 stragglers stretch every iteration.
	ComputeSkew []float64
	// PaperScaleComm scales the network's β by PaperParams/n, so that the
	// communication cost of synchronizing the scaled stand-in model matches
	// the paper-scale model exactly (the co-scaling argument of DESIGN.md
	// §2: all α-vs-β·n trade-offs are preserved). The convergence
	// experiments enable this; without it the stand-in's small gradients
	// make communication unrealistically cheap next to ComputeTime.
	PaperScaleComm bool
	// Elastic opts the run into elastic membership: instead of failing fast
	// on a poisoned fabric, survivors re-rendezvous, restore the last
	// barrier-consistent snapshot (params, momentum, residual), and resume
	// the synchronous rounds with the shrunk membership — see RunElastic.
	// nil keeps the fail-fast contract. Requires a Backend implementing
	// comm.ElasticBackend; ignored by plain Run.
	Elastic *ElasticConfig
	// Pipeline enables layer-wise bucketed synchronization: gradients are
	// fused into buckets (pipeline.Config.BucketBytes) that launch their
	// sparse all-reduce on the communication stream as soon as their
	// backward slices finish, overlapping communication with the remaining
	// backward compute. nil keeps the monolithic schedule. A single bucket
	// spanning the whole model reproduces the monolithic path bit for bit
	// (same top-k, same update, same virtual time).
	Pipeline *pipeline.Config
}

// Point is one sample of the training trajectory.
type Point struct {
	Iter   int
	Time   float64 // virtual seconds since training start
	Loss   float64 // held-out loss
	Metric float64 // held-out accuracy (classification) or loss (others)
}

// Result summarizes a run.
type Result struct {
	Method      string
	N, K        int
	Points      []Point
	FinalMetric float64
	FinalLoss   float64
	// Per-iteration averages of the virtual-time components, taken over
	// the worst worker per iteration.
	PerUpdateTime float64
	CommTime      float64
	CompTime      float64
	TotalTime     float64
	MaxRounds     int // per iteration, worst worker
	BytesPerIter  int64
	// ExposedComm is the per-iteration synchronization time that actually
	// delayed the worst worker — α-β charges plus the in-collective
	// selection/merge compute. With the pipeline it is what outlived the
	// overlapping backward pass; on serialized schedules (Pipeline nil or
	// NoOverlap) the whole synchronization is exposed. OverlapSaved is the
	// per-iteration clock time the pipeline hid under compute (zero when
	// serialized); serialized − pipelined ≡ OverlapSaved per worker and
	// iteration.
	ExposedComm  float64
	OverlapSaved float64
	// Buckets is the pipeline's bucket count (0 on the monolithic path).
	Buckets int
}

// Run executes the distributed training session and returns worker 0's view
// of the trajectory. All randomness is derived from cfg.Seed, so runs are
// exactly reproducible; replicas are verified to stay identical by tests.
func Run(cfg Config) *Result {
	s, err := newSession(cfg)
	if err != nil {
		panic(err.Error())
	}
	backend := cfg.Backend
	if backend == nil {
		network := cfg.Network
		if cfg.PaperScaleComm && cfg.Case.PaperParams > 0 {
			network.Beta *= float64(cfg.Case.PaperParams) / float64(s.n)
		}
		backend = simnet.Backend(network)
	}
	backend.Run(cfg.P, func(rank int, ep comm.Endpoint) {
		s.work(comm.Membership{P: cfg.P, Rank: rank, ID: rank}, ep, s.newReplica())
	})
	return s.result()
}

// session is one training run, normalised: what Run and RunElastic share
// beyond the worker body. Workers write only their own stats row; every
// other mutable field is guarded by mu, because rank 0 changes hands
// across elastic generations.
type session struct {
	cfg      Config
	n, k     int
	elastic  bool // workers snapshot at every barrier so a later generation can resume
	evalData data.Dataset
	stats    [][]iterStat // [worker ID][iteration]

	mu  sync.Mutex
	res *Result
	// gen is the latest generation any worker has entered, offset the
	// session clock when it was entered, and clock the furthest any
	// finished generation got: a fabric's clock restarts at every
	// re-rendezvous, so trajectory times are offset + ep.Clock().
	gen           int
	offset, clock float64
	resumeAt      map[int]int     // generation → agreed resume iteration
	firstRound    map[int]float64 // generation → rank 0's seconds to its first barrier
}

// iterStat is one worker's cost of one iteration, as before/after deltas
// of its endpoint statistics around the synchronization.
type iterStat struct {
	ran            int // generation that ran it last, plus one; 0 = never
	comm, comp     float64
	exposed, saved float64
	rounds         int
	bytes          int64
}

// newSession validates cfg and fills its defaults.
func newSession(cfg Config) (*session, error) {
	if cfg.Case == nil || cfg.P < 1 || cfg.Iters < 1 {
		return nil, fmt.Errorf("train: incomplete config")
	}
	if cfg.EvalBatch == 0 {
		cfg.EvalBatch = 256
		if cfg.Case.ID >= 5 {
			cfg.EvalBatch = 64
		}
	}
	n := nn.ParamCount(cfg.Case.NewModel(cfg.Seed).Params())
	k := min(max(int(cfg.KRatio*float64(n)), 1), n)
	s := &session{cfg: cfg, n: n, k: k, res: &Result{N: n, K: k},
		evalData: cfg.Case.NewData(cfg.Seed), stats: make([][]iterStat, cfg.P),
		resumeAt: map[int]int{}, firstRound: map[int]float64{}}
	for w := range s.stats {
		s.stats[w] = make([]iterStat, cfg.Iters)
	}
	return s, nil
}

// replica is one worker's training state. Under elastic membership it is
// keyed by stable worker ID and outlives fabric generations.
type replica struct {
	model nn.Model
	opt   *nn.SGD
	grad  []float32 // the model's packed gradient slab (nn.PackParams)
	// barriers counts SyncClock barriers passed — the resume candidate —
	// and the ring holds the boundary snapshots a resume restores from.
	barriers int
	snaps    [3]snap
	haveSnap [3]bool
}

func (s *session) newReplica() *replica {
	st := &replica{}
	st.reset(s.cfg.Case, s.cfg.Seed)
	return st
}

// reset gives the replica the fresh-start model (same seed ⇒ identical
// replicas), its parameters packed, and a fresh optimizer.
func (st *replica) reset(c *Case, seed int64) {
	st.model, st.opt = c.NewModel(seed), nn.NewSGD(c.LR, c.Momentum)
	_, st.grad = nn.PackParams(st.model.Params())
}

// work is one worker's body for one fabric generation: iterations from the
// resume point (0 in generation 0) to cfg.Iters.
func (s *session) work(m comm.Membership, ep comm.Endpoint, st *replica) {
	cfg, c, n := s.cfg, s.cfg.Case, s.n
	genStart := time.Now()
	ds := c.NewData(cfg.Seed)
	resume := 0
	if m.Gen > 0 {
		// Survivors' barrier counts can differ by one when the fault hit
		// between a local step and its barrier; one agreement round pins
		// the resume point to the last globally completed iteration on
		// every substrate.
		resume = agreeMinIter(ep, m.P, m.Rank, st.barriers)
	}
	skew := 1.0
	if cfg.ComputeSkew != nil {
		skew = cfg.ComputeSkew[m.ID]
	}

	// Monolithic path: one reducer over the whole flattened gradient.
	// Pipeline path: one SegmentReducer per bucket, launched at each
	// bucket's backward-ready point on the communication stream.
	var reducer sparsecoll.Reducer
	var sched *pipeline.Schedule
	var segs []nn.Segment
	method, buckets := "", 0
	if cfg.Pipeline == nil {
		reducer = cfg.Factory(m.P, m.Rank, n, s.k)
		method = reducer.Name()
	} else {
		segs = nn.GradSegments(st.model.Params())
		ready := nn.GradReadyTimes(st.model.Params(), c.ComputeTime*skew)
		sched = pipeline.NewSchedule(cfg.Factory, m.P, m.Rank, s.k, segs, ready, *cfg.Pipeline)
		method, buckets = sched.Reducers[0].BaseName(), len(sched.Buckets)
	}
	if m.Gen > 0 {
		st.restore(c, cfg.Seed, resume, reducer)
		st.barriers = resume
	}

	s.mu.Lock()
	if m.Gen != s.gen {
		s.gen, s.offset = m.Gen, s.clock
	}
	offset := s.offset
	if m.Gen > 0 {
		s.resumeAt[m.Gen] = resume // agreed, so the same from every worker
	}
	if m.Rank == 0 {
		s.res.Method, s.res.Buckets = method, buckets
		if m.Gen > 0 {
			// Drop points recorded for iterations now being re-run with
			// the new membership: the old rank 0 can have evaluated
			// iteration `resume` (it passed that barrier locally) even
			// though the fleet as a whole did not.
			for len(s.res.Points) > 0 && s.res.Points[len(s.res.Points)-1].Iter > resume {
				s.res.Points = s.res.Points[:len(s.res.Points)-1]
			}
		}
	}
	s.mu.Unlock()
	defer func() { // also on the way out of a poisoned generation
		s.mu.Lock()
		s.clock = max(s.clock, offset+ep.Clock())
		s.mu.Unlock()
	}()

	var flat []float32 // the pipeline's gather buffer for fused buckets
	if sched != nil {
		flat = make([]float32, n)
	}
	global := make([]float32, n)
	invP := float32(1) / float32(m.P)
	for it := resume; it < cfg.Iters; it++ {
		batch := ds.TrainBatch(m.Rank, it, c.BatchSize)
		clear(st.grad) // every parameter's gradient: they are packed
		loss, _ := st.model.Loss(batch)
		loss.Backward()

		before := ep.Stats()
		if sched == nil {
			ep.Compute(c.ComputeTime * skew) // simulated forward+backward time
			// In-place synchronization of the gradient slab backward
			// left behind into the per-worker result vector: the reduce
			// pipeline allocates nothing at steady state (arena chunks +
			// persistent dense scratch).
			sparsecoll.ReduceInto(reducer, ep, st.grad, global)
		} else {
			// Schedule.Run charges the forward+backward compute itself,
			// bucket by bucket, overlapping each bucket's all-reduce
			// with the compute still ahead of it.
			sched.Run(ep, segs, flat, global)
		}
		after := ep.Stats()

		st.opt.StepScaled(st.model.Params(), global, invP) // the average of the P summed gradients

		stat := iterStat{
			ran: m.Gen + 1,
			// CompTime already includes the model compute: both paths
			// charge it through ep.Compute after `before` was taken.
			comm:    after.CommTime - before.CommTime,
			comp:    after.CompTime - before.CompTime,
			exposed: after.ExposedComm - before.ExposedComm,
			saved:   after.OverlapSaved - before.OverlapSaved,
			rounds:  after.Rounds - before.Rounds,
			bytes:   after.BytesRecv - before.BytesRecv,
		}
		if sched == nil || cfg.Pipeline.NoOverlap {
			// Serialized synchronization is exposed in full: the α-β
			// charges plus the in-collective selection/merge compute —
			// the same constituents the overlap stream hides or exposes.
			stat.exposed = stat.comm + (stat.comp - c.ComputeTime*skew)
		}
		if s.elastic {
			st.snapshot(it, reducer, n)
		}
		ep.SyncClock() // may panic mid-recovery; the iteration commits only past here
		st.barriers = it + 1
		s.stats[m.ID][it] = stat

		if m.Rank != 0 {
			continue
		}
		if it == resume && m.Gen > 0 {
			s.mu.Lock()
			s.firstRound[m.Gen] = time.Since(genStart).Seconds()
			s.mu.Unlock()
		}
		if cfg.EvalEvery > 0 && (it+1)%cfg.EvalEvery == 0 {
			p := evalPoint(st.model, s.evalData, cfg, it+1, offset+ep.Clock())
			s.mu.Lock()
			s.res.Points = append(s.res.Points, p)
			s.mu.Unlock()
		}
	}
	if m.Rank == 0 {
		p := evalPoint(st.model, s.evalData, cfg, cfg.Iters, offset+ep.Clock())
		s.mu.Lock()
		if len(s.res.Points) == 0 || s.res.Points[len(s.res.Points)-1].Iter != cfg.Iters {
			s.res.Points = append(s.res.Points, p)
		}
		s.res.FinalMetric = p.Metric
		s.res.FinalLoss = p.Loss
		s.res.TotalTime = p.Time
		s.mu.Unlock()
	}
}

// result folds the per-iteration statistics into the Result: for every
// iteration the worst worker of the generation that ran it last (a
// recovery re-runs iterations with the new membership), averaged over all
// cfg.Iters iterations.
func (s *session) result() *Result {
	res, iters := s.res, float64(s.cfg.Iters)
	var commSum, compSum, exposedSum, savedSum float64
	var bytesSum int64
	for it := 0; it < s.cfg.Iters; it++ {
		var worst iterStat
		for w := range s.stats {
			st := s.stats[w][it]
			if st.ran < worst.ran {
				continue
			}
			if st.ran > worst.ran {
				worst = iterStat{ran: st.ran}
			}
			worst.comm = max(worst.comm, st.comm)
			worst.comp = max(worst.comp, st.comp)
			worst.exposed = max(worst.exposed, st.exposed)
			worst.saved = max(worst.saved, st.saved)
			worst.bytes = max(worst.bytes, st.bytes)
			worst.rounds = max(worst.rounds, st.rounds)
		}
		commSum += worst.comm
		compSum += worst.comp
		exposedSum += worst.exposed
		savedSum += worst.saved
		bytesSum += worst.bytes
		res.MaxRounds = max(res.MaxRounds, worst.rounds)
	}
	res.CommTime = commSum / iters
	res.CompTime = compSum / iters
	res.ExposedComm = exposedSum / iters
	res.OverlapSaved = savedSum / iters
	res.PerUpdateTime = res.TotalTime / iters
	res.BytesPerIter = bytesSum / int64(s.cfg.Iters)
	return res
}

func evalPoint(model nn.Model, ds data.Dataset, cfg Config, iter int, clock float64) Point {
	batch := ds.EvalBatch(cfg.EvalBatch)
	loss, metric := model.Loss(batch)
	return Point{Iter: iter, Time: clock, Loss: float64(loss.Data[0]), Metric: metric}
}

// String renders a compact one-line summary for logs.
func (r *Result) String() string {
	return fmt.Sprintf("%-22s n=%d k=%d per-update=%.4fs (comm %.4fs, comp %.4fs) final=%.4f",
		r.Method, r.N, r.K, r.PerUpdateTime, r.CommTime, r.CompTime, r.FinalMetric)
}
