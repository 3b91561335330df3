package train

import (
	"fmt"
	"math"
	"sync"
	"time"

	"spardl/internal/comm"
	"spardl/internal/nn"
	"spardl/internal/pipeline"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
)

// Config describes one distributed training run.
type Config struct {
	Case   *Case
	P      int     // number of workers
	KRatio float64 // k/n density (the paper's sparsification knob); 1 = dense k
	// Network is the α-β profile simnet charges when Backend is nil; a
	// wall-clock Backend ignores it and pays one only under comm.Shaped.
	Network comm.Profile
	Factory sparsecoll.Factory
	Iters   int
	Seed    int64
	// EvalEvery controls metric sampling (iterations); 0 disables interior
	// evaluation and records only the final point. An evaluation is part
	// of its iteration: every rank scores its rows of the held-out batch
	// before the iteration's barrier (see session.evaluate).
	EvalEvery int
	// EvalBatch is the held-out batch size (default 256 for dense tasks,
	// 64 for sequence tasks), drawn once per run.
	EvalBatch int
	// Backend selects the communication substrate the workers run on.
	// nil (the default) uses the α-β simulator with the Network profile;
	// livenet.NewBackend() runs the same iterations over the real
	// concurrent byte-level transport, in which case every time-valued
	// result field holds measured wall seconds.
	Backend comm.Backend
	// PaperScaleComm scales the network's β by PaperParams/n, so that the
	// communication cost of synchronizing the scaled stand-in model matches
	// the paper-scale model exactly (co-scaling n and β preserves every
	// α-vs-β·n trade-off). The convergence
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
	// backward compute. nil keeps the paper's monolithic schedule, which is
	// the same pipeline planned as one bucket spanning the whole model: it
	// launches when the backward pass ends, so nothing overlaps.
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
	// selection/merge compute — as the endpoint's Join books it: what
	// outlived the overlapping backward pass, all of it when monolithic
	// (Pipeline nil). OverlapSaved is the per-iteration clock time hidden
	// under compute (zero when monolithic); serialized − pipelined ≡
	// OverlapSaved per worker and iteration.
	ExposedComm  float64
	OverlapSaved float64
	// Buckets is the schedule's bucket count (1 when monolithic).
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
	cfg     Config
	n, k    int
	elastic bool         // workers snapshot at every barrier so a later generation can resume
	held    *nn.Batch    // the held-out batch, drawn once; every rank reads its own rows
	stats   [][]iterStat // [worker ID][iteration]

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
		held: cfg.Case.NewData(cfg.Seed).EvalBatch(cfg.EvalBatch), stats: make([][]iterStat, cfg.P),
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

	// One SegmentReducer per bucket, launched at each bucket's
	// backward-ready point on the communication stream. The monolithic
	// schedule is the one bucket that spans the model.
	pcfg := pipeline.Config{BucketBytes: math.MaxInt}
	if cfg.Pipeline != nil {
		pcfg = *cfg.Pipeline
	}
	params := st.model.Params()
	sched := pipeline.NewSchedule(cfg.Factory, m.P, m.Rank, s.k, nn.GradSegments(params),
		nn.GradReadyTimes(params, c.ComputeTime), pcfg)
	if m.Gen > 0 {
		st.restore(c, cfg.Seed, resume, sched)
		st.barriers = resume
	}
	segs := nn.GradSegments(st.model.Params()) // restore may have renewed the model

	s.mu.Lock()
	if m.Gen != s.gen {
		s.gen, s.offset = m.Gen, s.clock
	}
	offset := s.offset
	if m.Gen > 0 {
		s.resumeAt[m.Gen] = resume // agreed, so the same from every worker
	}
	if m.Rank == 0 {
		s.res.Method, s.res.Buckets = sched.Reducers[0].BaseName(), len(sched.Buckets)
		if m.Gen > 0 {
			// Drop points recorded for iterations now being re-run with
			// the new membership: the old rank 0 can have recorded
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

	global := make([]float32, n)
	invP := float32(1) / float32(m.P)
	rows := s.held.Rows(m.Rank*s.held.Size()/m.P, (m.Rank+1)*s.held.Size()/m.P)
	for it := resume; it < cfg.Iters; it++ {
		batch := ds.TrainBatch(m.Rank, it, c.BatchSize)
		clear(st.grad) // every parameter's gradient: they are packed
		loss, _ := st.model.Loss(batch)
		loss.Backward()

		before := ep.Stats()
		// Run charges the forward+backward compute itself, bucket by
		// bucket, and reduces the packed gradient slab in place: st.grad
		// is its flat, so no gradient is copied.
		sched.Run(ep, segs, st.grad, global)
		after := ep.Stats()

		st.opt.StepScaled(st.model.Params(), global, invP) // the average of the P summed gradients

		stat := iterStat{
			ran:     m.Gen + 1,
			comm:    after.CommTime - before.CommTime,
			comp:    after.CompTime - before.CompTime,
			exposed: after.ExposedComm - before.ExposedComm,
			saved:   after.OverlapSaved - before.OverlapSaved,
			rounds:  after.Rounds - before.Rounds,
			bytes:   after.BytesRecv - before.BytesRecv,
		}
		if s.elastic {
			st.snapshot(it, sched, n)
		}
		evalAt := it+1 == cfg.Iters || cfg.EvalEvery > 0 && (it+1)%cfg.EvalEvery == 0
		var pt Point
		if evalAt {
			pt = s.evaluate(ep, m, st.model, rows)
		}
		ep.SyncClock() // may panic mid-recovery; the iteration commits, eval included, only past here
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
		if evalAt {
			pt.Iter, pt.Time = it+1, offset+ep.Clock()
			s.mu.Lock()
			s.res.Points = append(s.res.Points, pt)
			s.mu.Unlock()
		}
	}
	if m.Rank == 0 {
		// The last iteration recorded the final point. Every generation
		// runs it: nothing communicates after its barrier, so no
		// generation fails once every survivor has passed it.
		s.mu.Lock()
		p := s.res.Points[len(s.res.Points)-1]
		s.res.FinalMetric = p.Metric
		s.res.FinalLoss = p.Loss
		s.res.TotalTime = p.Time
		s.mu.Unlock()
	}
}

// evaluate scores rows [r·B/P, (r+1)·B/P) of the B-row held-out batch on
// rank r, in chunks of the case's training batch size, so the model's
// tape holds no buffer larger than a training step's. Each chunk's correct
// count and the means behind its loss (nn.Tensor.Means) are added to the
// shard's in row order; ranks 1…P−1 send rank 0 theirs in one message,
// and rank 0 adds them to its own in rank order and returns the whole
// batch's Loss (nn.MeanLoss) and Metric, the other ranks a zero Point. An
// empty shard sends zeros without running the model. The exchange runs
// after the iteration's statistics are taken, so it moves Point.Time and
// TotalTime — by (P−1)·α per point on simnet, where rank 0 receives the
// messages one after another — and none of the per-iteration averages.
func (s *session) evaluate(ep comm.Endpoint, m comm.Membership, model nn.Model, rows *nn.Batch) Point {
	var means []nn.Mean
	correct := 0
	for lo, step := 0, s.cfg.Case.BatchSize; lo < rows.Size(); lo += step {
		loss, metric := model.Loss(rows.Rows(lo, min(lo+step, rows.Size())))
		for i, mn := range loss.Means() {
			means = addMean(means, i, mn)
		}
		if s.cfg.Case.Accuracy { // metric is correct / the chunk's count
			correct += int(math.Round(metric * float64(loss.Means()[0].Count)))
		}
	}
	if m.Rank != 0 {
		msg := make([]any, 1, 1+2*len(means))
		msg[0] = correct
		for _, mn := range means {
			msg = append(msg, mn.Sum, mn.Count)
		}
		ep.Send(0, msg, 8*len(msg))
		return Point{}
	}
	for r := 1; r < m.P; r++ {
		v, _ := ep.Recv(r)
		msg := v.([]any)
		correct += msg[0].(int)
		for i := 0; 2*i+1 < len(msg); i++ {
			means = addMean(means, i, nn.Mean{Sum: msg[2*i+1].(float64), Count: msg[2*i+2].(int)})
		}
	}
	loss := float64(nn.MeanLoss(means))
	metric := loss
	if s.cfg.Case.Accuracy {
		metric = 0
		if means[0].Count > 0 {
			metric = float64(correct) / float64(means[0].Count)
		}
	}
	return Point{Loss: loss, Metric: metric}
}

// addMean adds mn into means[i], which is means' length or less.
func addMean(means []nn.Mean, i int, mn nn.Mean) []nn.Mean {
	if i == len(means) {
		means = append(means, nn.Mean{})
	}
	means[i].Sum += mn.Sum
	means[i].Count += mn.Count
	return means
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

// String renders a compact one-line summary for logs.
func (r *Result) String() string {
	return fmt.Sprintf("%-22s n=%d k=%d per-update=%.4fs (comm %.4fs, comp %.4fs) final=%.4f",
		r.Method, r.N, r.K, r.PerUpdateTime, r.CommTime, r.CompTime, r.FinalMetric)
}
