package main

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/livenet"
	"spardl/internal/nn"
	"spardl/internal/pipeline"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
	"spardl/internal/tcpnet"
	"spardl/internal/train"
)

// syncSpec describes one synchronization workload: which reducer runs on
// which fabric over which gradients.
type syncSpec struct {
	fabric   string // simnet | livenet | tcpnet
	p        int
	n        int     // gradient length; 0 with buckets (the model decides)
	quickN   int     // -quick gradient length
	density  float64 // k/n
	teams    int     // SparDL team count d; 0 selects the dense all-reduce
	grads    gradMode
	buckets  bool // per-layer pipeline.Schedule over the case-7 tensors
	blockOps int  // timed ops between two calibration readings
	// factory overrides the reducer (tests inject a corrupting one).
	factory sparsecoll.Factory
}

const (
	syncWarmup    = 5 // warm-up syncs; also the length of the simnet replica
	syncMinBlocks = 8
	bucketCase    = 7 // BERT-like: 12 tensors, n = 374 048

	// setup_s is the median over a run's set-ups, each calibrated by the
	// kernel readings around it: at least syncSetupsMin, and for workloads
	// that set up in milliseconds as many more as fit in syncSetupBudget
	// seconds, so the median is of a comparable amount of measured time on
	// every workload.
	syncSetupsMin   = 3
	syncSetupsMax   = 25
	syncSetupBudget = 4.0
)

func newFabric(name string) comm.Backend {
	switch name {
	case "simnet":
		return simnet.Backend(simnet.Ethernet)
	case "livenet":
		return livenet.NewBackend()
	case "tcpnet":
		// Loopback rendezvous takes milliseconds; the default 30 s timeout
		// would only stretch a failed set-up (see runOn).
		return tcpnet.LocalBackend(10 * time.Second)
	}
	panic("bench: unknown fabric " + name)
}

// runOn runs worker on a fresh fabric, wrapped by wrap when non-nil, and
// turns a poisoned fabric into an error. tcpnet's loopback backend
// reserves its rendezvous port by bind, release, re-bind, and one of the
// fleet's own data listeners can be handed the port in between. That is a
// set-up failing before any worker ran, not an op failing, so it is
// retried on a fresh port.
func runOn(fabric string, wrap func(comm.Backend) comm.Backend, p int, worker func(rank int, ep comm.Endpoint)) (rep *comm.Report, err error) {
	for attempt := 0; ; attempt++ {
		backend := newFabric(fabric)
		if wrap != nil {
			backend = wrap(backend)
		}
		rep, err = tryRun(backend, p, worker)
		if err == nil || attempt == 3 || !strings.Contains(err.Error(), "rendezvous") {
			return rep, err
		}
	}
}

func tryRun(backend comm.Backend, p int, worker func(rank int, ep comm.Endpoint)) (rep *comm.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("workload poisoned its fabric: %v", r)
		}
	}()
	return backend.Run(p, worker), nil
}

func (s syncSpec) baseFactory() sparsecoll.Factory {
	if s.factory != nil {
		return s.factory
	}
	if s.teams == 0 {
		return sparsecoll.NewDense
	}
	return core.NewFactory(core.Options{Teams: s.teams})
}

func (s syncSpec) reduceSpan() spanName {
	if s.teams == 0 {
		return spDenseReduce
	}
	return spCoreReduce
}

// sizes resolves n, k and the block length for a full or quick run.
func (s syncSpec) sizes(quick bool) (n, k, blockOps int) {
	n, blockOps = s.n, s.blockOps
	if s.buckets {
		n = nn.ParamCount(train.CaseByID(bucketCase).NewModel(1).Params())
	} else if quick {
		n = s.quickN
	}
	if quick {
		blockOps = 2
	}
	k = int(s.density * float64(n))
	if k < 1 {
		k = 1
	}
	return n, k, blockOps
}

// rankWorker is one rank's program under test: sync performs one
// synchronization (input copy + reduce, no barrier) into out.
type rankWorker struct {
	sync      func(ep comm.Endpoint)
	grad, out []float32
	residuals func() []residualView
	buckets   int
}

// residualView is a reducer's live residual and where it sits in the
// flattened gradient.
type residualView struct {
	lo  int
	val []float32
}

func (s syncSpec) newWorker(p, rank, n, k int, grad []float32, factory sparsecoll.Factory) *rankWorker {
	w := &rankWorker{grad: grad, out: make([]float32, n)}
	if !s.buckets {
		r := factory(p, rank, n, k)
		g := make([]float32, n)
		w.sync = func(ep comm.Endpoint) {
			ln := laneOf(ep)
			id := ln.begin(spGradCopy)
			copy(g, grad)
			ln.end(id, 0)
			sparsecoll.ReduceInto(r, ep, g, w.out)
		}
		w.residuals = func() []residualView {
			if res := residualOf(r); res != nil {
				return []residualView{{0, res}}
			}
			return nil
		}
		return w
	}
	// Synthetic per-tensor gradients: the tensors' Grad fields alias this
	// rank's input vector, so Schedule.Run's CopyGrad is the input copy and
	// there is no forward or backward pass.
	c := train.CaseByID(bucketCase)
	params := c.NewModel(1).Params()
	segs := nn.GradSegments(params)
	for _, sg := range segs {
		sg.Param.Grad = grad[sg.Lo:sg.Hi]
	}
	ready := nn.GradReadyTimes(params, c.ComputeTime)
	sched := pipeline.NewSchedule(factory, p, rank, k, segs, ready, pipeline.Config{})
	flat := make([]float32, n)
	w.buckets = len(sched.Buckets)
	w.sync = func(ep comm.Endpoint) {
		ln := laneOf(ep)
		id := ln.begin(spPipelineRun)
		sched.Run(ep, segs, flat, w.out)
		ln.end(id, 0)
	}
	w.residuals = func() []residualView {
		var out []residualView
		for _, r := range sched.Reducers {
			if res := r.Residual(); res != nil {
				out = append(out, residualView{r.Lo, res})
			}
		}
		return out
	}
	return w
}

// injectedMass returns Σ(grad + residual) and Σ(grad + residual)² in
// float64: what this rank is about to put into the synchronization.
func (w *rankWorker) injectedMass() (sum, sq float64) {
	covered := 0
	for _, rv := range w.residuals() {
		for i, r := range rv.val {
			v := float64(w.grad[rv.lo+i]) + float64(r)
			sum += v
			sq += v * v
		}
		covered += len(rv.val)
	}
	if covered == 0 { // residual-free reducer (dense all-reduce)
		return sum64(w.grad), sumSq64(w.grad)
	}
	return sum, sq
}

func (w *rankWorker) residualMass() float64 {
	s := 0.0
	for _, rv := range w.residuals() {
		s += sum64(rv.val)
	}
	return s
}

// syncObservation is everything one measured run leaves behind for the
// checks and the metrics.
type syncObservation struct {
	p, n, k     int
	setups      []float64 // calibrated seconds per set-up trial
	rendezvous  float64   // ms from Backend.Run to the slowest worker's start
	warmHash    []uint64  // per rank, after the warm-up syncs
	finalHash   []uint64  // per rank, after the verified sync
	injected    []float64 // per rank Σ(grad+residual) before the verified sync
	injectedSq  []float64
	leftover    []float64 // per rank Σ residual after it
	delivered   float64   // Σ out on rank 0 after it
	deliveredNZ int       // non-zero entries of the delivered gradient
	buckets     int
	report      *comm.Report // stats since the end of warm-up
	meter       *meter
	tracer      *tracer
	grads       [][]float32
}

// measureSync sets the workload up several times (timing each; once on a
// traced run, which does not report setup_s), and on the last one runs timed blocks until the window is used up, then one
// verified synchronization.
func measureSync(s syncSpec, cfg runConfig, cal *calKernel) (*syncObservation, error) {
	n, k, blockOps := s.sizes(cfg.quick)
	minBlocks, warmup := syncMinBlocks, syncWarmup
	if cfg.trace {
		minBlocks /= 2 // per-layer metrics carry no bound; -seconds decides
	}
	if cfg.quick {
		minBlocks = 2
	}
	obs := &syncObservation{p: s.p, n: n, k: k}
	factory := s.baseFactory()
	if cfg.trace {
		obs.tracer = newTracer(s.p)
		factory = traceFactory(factory, s.reduceSpan())
	}
	obs.meter = newMeter(cal, obs.tracer)
	m := obs.meter
	var stop atomic.Bool

	var wrap func(comm.Backend) comm.Backend
	if obs.tracer != nil {
		wrap = func(b comm.Backend) comm.Backend { return &probeBackend{inner: b, tr: obs.tracer} }
	}
	calBefore := cal.read()
	for trial, spent, last := 0, 0.0, false; !last; trial++ {
		last = cfg.quick || cfg.trace || trial+1 >= syncSetupsMax || (trial+1 >= syncSetupsMin && spent >= syncSetupBudget)
		t0 := time.Now()
		grads := genGrads(cfg.seed, s.p, n, s.grads)
		obs.grads = grads
		obs.warmHash = make([]uint64, s.p)
		obs.finalHash = make([]uint64, s.p)
		obs.injected = make([]float64, s.p)
		obs.injectedSq = make([]float64, s.p)
		obs.leftover = make([]float64, s.p)
		delays := make([]time.Duration, s.p)
		var setupDur time.Duration

		tRun := time.Now()
		report, err := runOn(s.fabric, wrap, s.p, func(rank int, ep comm.Endpoint) {
			delays[rank] = time.Since(tRun)
			raw := ep // the harness's own barriers stay out of the trace
			if pe, ok := ep.(*probeEndpoint); ok {
				raw = pe.inner
			}
			w := s.newWorker(s.p, rank, n, k, grads[rank], factory)
			op := func() {
				w.sync(ep)
				ep.SyncClock()
			}
			for i := 0; i < warmup; i++ {
				op()
			}
			if rank == 0 {
				setupDur = time.Since(t0)
				obs.buckets = w.buckets
			}
			if !last {
				return
			}
			obs.warmHash[rank] = hashVec(w.out)
			raw.SyncClock() // every rank is out of warm-up before stats restart
			ep.ResetStats()
			for opID := int32(0); ; {
				if rank == 0 {
					done := len(m.blocks) >= minBlocks && m.elapsed() >= cfg.seconds
					m.gap(done)
					stop.Store(done)
				}
				raw.SyncClock() // releases the ranks parked during the gap
				if stop.Load() {
					break
				}
				for i := 0; i < blockOps; i++ {
					if obs.tracer != nil {
						obs.tracer.ranks[rank].op.Store(opID)
					}
					t := time.Now()
					op()
					if rank == 0 {
						m.sample(time.Since(t))
					}
					opID++
				}
			}
			obs.injected[rank], obs.injectedSq[rank] = w.injectedMass()
			op()
			obs.leftover[rank] = w.residualMass()
			obs.finalHash[rank] = hashVec(w.out)
			if rank == 0 {
				obs.delivered = sum64(w.out)
				for _, v := range w.out {
					if v != 0 {
						obs.deliveredNZ++
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		obs.report = report
		calAfter := calBefore // the last trial runs on into the timed window
		if !last {
			calAfter = cal.read()
		}
		obs.setups = append(obs.setups, calibrate(setupDur.Seconds(), calBefore, calAfter))
		calBefore = calAfter
		spent += time.Since(t0).Seconds()
		for _, d := range delays {
			obs.rendezvous = math.Max(obs.rendezvous, float64(d.Nanoseconds())/1e6)
		}
	}
	return obs, nil
}

// syncReplica is the simnet twin of a sync workload: the same inputs and
// reducers for syncWarmup synchronizations on the α-β simulator.
type syncReplica struct {
	hash        uint64  // rank 0's output after the last sync
	agree       bool    // every rank produced that hash
	modelMs     float64 // virtual clock per sync
	exposedFrac float64
	rounds      int     // per sync, worst worker
	bytesMax    float64 // per sync, worst worker
}

func runSyncReplica(s syncSpec, n, k int, grads [][]float32) (rep syncReplica, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simnet replica poisoned its fabric: %v", r)
		}
	}()
	hashes := make([]uint64, s.p)
	factory := s.baseFactory()
	report := simnet.Backend(simnet.Ethernet).Run(s.p, func(rank int, ep comm.Endpoint) {
		w := s.newWorker(s.p, rank, n, k, grads[rank], factory)
		for i := 0; i < syncWarmup; i++ {
			w.sync(ep)
			ep.SyncClock()
		}
		hashes[rank] = hashVec(w.out)
	})
	rep.hash, rep.agree = hashes[0], true
	for _, h := range hashes {
		rep.agree = rep.agree && h == hashes[0]
	}
	rep.modelMs = modelSyncMs(report, syncWarmup)
	rep.rounds = report.MaxRounds() / syncWarmup
	rep.bytesMax = float64(report.MaxBytesRecv()) / syncWarmup
	rep.exposedFrac = exposedFrac(report.PerWorker)
	return rep, nil
}

// alphaMs is the simulated network's per-message latency. model_sync_cost
// is reported in units of it — xα + yβ + modelled selection and merge
// compute, divided by α — so the figure reads as "this many message
// latencies" and is independent of any host clock.
var alphaMs = simnet.Ethernet.Alpha * 1e3

// modelSyncMs is the α-β model's cost of one synchronization on the worst
// worker. A serial schedule spends its whole virtual clock synchronizing
// (nothing else is charged); an overlapped one books the stream's busy time
// as exposed + hidden, and the clock also carries the modelled backward
// pass, which is not the synchronization's cost.
func modelSyncMs(report *comm.Report, syncs int) float64 {
	stream := 0.0
	for _, st := range report.PerWorker {
		stream = math.Max(stream, st.ExposedComm+st.OverlapSaved)
	}
	if stream == 0 {
		stream = report.Time
	}
	return stream * 1e3 / float64(syncs)
}

// exposedFrac is exposed / (exposed + hidden) communication over all
// workers. A schedule that never overlaps books neither, and all of its
// communication is exposed.
func exposedFrac(stats []comm.Stats) float64 {
	var exposed, saved float64
	for _, st := range stats {
		exposed += st.ExposedComm
		saved += st.OverlapSaved
	}
	if exposed+saved == 0 {
		return 1
	}
	return exposed / (exposed + saved)
}
