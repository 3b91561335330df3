package main

import (
	"fmt"
	"math"
	"time"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/data"
	"spardl/internal/livenet"
	"spardl/internal/nn"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
	"spardl/internal/train"
)

// trainSpec describes the training workload: train.Run on livenet with
// SparDL d=1, timed and calibrated from a barrier hook because train.Run
// has no other seam.
type trainSpec struct {
	caseID     int
	p          int
	density    float64
	iters      int // iteration 1 is warm-up; the rest are timed ops
	evalEvery  int
	evalBatch  int
	blockOps   int     // timed iterations between two calibration readings
	targetLoss float64 // frozen: the 3-point mean held-out loss to reach
	// quickTargetLoss replaces targetLoss at -quick sizes, where the run is
	// too short to get anywhere near the real target.
	quickTargetLoss float64
	// replicaIters is how many iterations the simnet twin runs; its
	// held-out losses must match the live run's bit for bit.
	replicaIters int
	// factory overrides the reducer (tests inject a corrupting one).
	factory sparsecoll.Factory
}

// trainSeedSeconds is what one derived seed's run costs on the reference
// host; -seconds buys round(seconds / trainSeedSeconds) seeds.
const trainSeedSeconds = 3.4

// trainSetups is how many set-up-only trials (train.Run for one
// iteration) setup_s is the median of, each calibrated by the kernel
// readings around it.
const trainSetups = 25

func (s trainSpec) quickened() trainSpec {
	s.iters, s.evalEvery, s.evalBatch, s.blockOps = 11, 5, 128, 5
	s.targetLoss, s.replicaIters = s.quickTargetLoss, 10
	return s
}

func (s trainSpec) baseFactory() sparsecoll.Factory {
	if s.factory != nil {
		return s.factory
	}
	return core.NewFactory(core.Options{})
}

// trainObservation is one derived seed's run.
type trainObservation struct {
	seed    int64
	res     *train.Result
	report  *comm.Report
	meter   *meter
	reached bool
	atEval  int     // eval iteration at which the 3-point mean first met the target
	atIter  float64 // the same crossing, interpolated between eval points
	atS     float64 // calibrated seconds from the end of warm-up to it
}

// reportingBackend keeps the Report train.Run discards.
type reportingBackend struct {
	comm.Backend
	last *comm.Report
}

func (b *reportingBackend) Run(p int, worker func(rank int, ep comm.Endpoint)) *comm.Report {
	b.last = b.Backend.Run(p, worker)
	return b.last
}

// trainOnce runs one seed on the given fabric under the barrier hook:
// rank 0 timestamps every SyncClock return, and at block boundaries all
// ranks take one extra barrier while rank 0 runs the calibration gap.
func trainOnce(s trainSpec, seed int64, p int, fabric comm.Backend, factory sparsecoll.Factory,
	cal *calKernel, tr *tracer) (obs *trainObservation, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("training run poisoned its fabric: %v", r)
		}
	}()
	c := *train.CaseByID(s.caseID)
	if tr != nil {
		owners := &batchOwners{tr: tr}
		newModel, newData := c.NewModel, c.NewData
		c.NewModel = func(seed int64) nn.Model { return &tracedModel{newModel(seed), owners} }
		c.NewData = func(seed int64) data.Dataset { return &tracedData{newData(seed), owners} }
		factory = traceFactory(factory, spCoreReduce)
	}
	obs = &trainObservation{seed: seed, meter: newMeter(cal, tr)}
	m := obs.meter
	counts := make([]int, p) // barriers passed, per rank; each rank owns its slot
	var last time.Time       // rank 0: when the previous barrier released
	backend := &reportingBackend{Backend: &probeBackend{inner: fabric, tr: tr,
		onBarrier: func(rank int, ep comm.Endpoint) {
			counts[rank]++
			n := counts[rank]
			if rank == 0 && n > 1 { // barrier 1 ends the warm-up iteration
				m.sample(time.Since(last))
			}
			if n == 1 || (n-1)%s.blockOps == 0 || n == s.iters {
				if rank == 0 {
					m.gap(n == s.iters)
				}
				ep.SyncClock() // releases the ranks parked during the gap
			}
			if tr != nil {
				tr.ranks[rank].op.Store(int32(n))
			}
			if rank == 0 {
				last = time.Now()
			}
		}}}
	obs.res = train.Run(train.Config{Case: &c, P: p, KRatio: s.density,
		Factory: factory, Iters: s.iters, Seed: seed, EvalEvery: s.evalEvery, EvalBatch: s.evalBatch,
		Backend: backend})
	obs.report = backend.last
	obs.findCrossing(s)
	return obs, nil
}

// trainSetupOnly times one more set-up: train.Run from its call to the
// end of iteration 1 (model, data, optimizer, reducers, fabric, and the
// warm-up step).
func trainSetupOnly(s trainSpec, seed int64) (seconds float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("training set-up poisoned its fabric: %v", r)
		}
	}()
	t0 := time.Now()
	train.Run(train.Config{Case: train.CaseByID(s.caseID), P: s.p, KRatio: s.density, Factory: s.baseFactory(),
		Iters: 1, Seed: seed, EvalBatch: 1, // the final eval is not set-up
		Backend: &probeBackend{inner: livenet.NewBackend(), onBarrier: func(rank int, _ comm.Endpoint) {
			if rank == 0 {
				seconds = time.Since(t0).Seconds()
			}
		}}})
	return seconds, nil
}

// findCrossing locates the first eval point whose 3-point mean held-out
// loss is at or below the target and interpolates the crossing between
// that point and the previous one, in iterations and in calibrated time.
func (o *trainObservation) findCrossing(s trainSpec) {
	// cum[i] is the calibrated time from the end of warm-up (barrier 1)
	// to barrier i+1.
	cum := []float64{0}
	for _, b := range o.meter.blocks {
		f := b.factor()
		for _, smp := range b.samples {
			cum = append(cum, cum[len(cum)-1]+smp*f/1e3)
		}
	}
	at := func(iter float64) float64 {
		x := math.Min(math.Max(iter-1, 0), float64(len(cum)-1))
		lo := int(x)
		if lo == len(cum)-1 {
			return cum[lo]
		}
		return cum[lo] + (x-float64(lo))*(cum[lo+1]-cum[lo])
	}
	var iters, smooth []float64
	for _, pt := range o.res.Points {
		if pt.Iter%s.evalEvery != 0 {
			continue // the final-iteration point when iters is not a multiple
		}
		iters = append(iters, float64(pt.Iter))
		j := len(iters) - 1
		sum, cnt := 0.0, 0
		for k := max(0, j-2); k <= j; k++ {
			sum += lossAt(o.res.Points, int(iters[k]))
			cnt++
		}
		smooth = append(smooth, sum/float64(cnt))
		if smooth[j] > s.targetLoss {
			continue
		}
		o.reached, o.atEval, o.atIter = true, pt.Iter, iters[j]
		if j > 0 && smooth[j-1] > smooth[j] {
			frac := (smooth[j-1] - s.targetLoss) / (smooth[j-1] - smooth[j])
			o.atIter = iters[j-1] + frac*(iters[j]-iters[j-1])
		}
		o.atS = at(o.atIter)
		return
	}
	o.atS = cum[len(cum)-1]
}

func lossAt(points []train.Point, iter int) float64 {
	for _, pt := range points {
		if pt.Iter == iter {
			return pt.Loss
		}
	}
	return math.NaN()
}

// evalLosses returns the held-out losses at the regular eval points.
func evalLosses(points []train.Point, evalEvery, upTo int) []float64 {
	var out []float64
	for _, pt := range points {
		if pt.Iter%evalEvery == 0 && pt.Iter <= upTo {
			out = append(out, pt.Loss)
		}
	}
	return out
}

func runTrainWorkload(name string, s trainSpec, cfg runConfig, cal *calKernel) (*result, error) {
	seeds := max(1, int(math.Round(cfg.seconds/trainSeedSeconds)))
	if cfg.quick {
		s, seeds = s.quickened(), 1
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(s.p)
	}
	res := &result{Workload: name, Seed: cfg.seed, Traced: cfg.trace,
		Metrics: map[string]float64{}, Diag: map[string]float64{}}
	var runs []*trainObservation
	for i := 0; i < seeds; i++ {
		obs, err := trainOnce(s, cfg.seed*1000+int64(i), s.p, livenet.NewBackend(), s.baseFactory(), cal, tr)
		if err != nil {
			return nil, err
		}
		runs = append(runs, obs)
		res.Attempted += s.iters
		if !obs.reached {
			res.fail(s.iters, checkTarget)
		}
	}

	// The simnet twin of the first seed: same case, seed and reducer on the
	// α-β simulator. Losses must match bit for bit; its virtual clock is
	// the model's cost of one iteration's synchronization.
	c := train.CaseByID(s.caseID)
	twin := train.Run(train.Config{Case: c, P: s.p, KRatio: s.density, Network: simnet.Ethernet,
		Factory: core.NewFactory(core.Options{}), Iters: s.replicaIters, Seed: runs[0].seed,
		EvalEvery: s.evalEvery, EvalBatch: s.evalBatch})
	if !lossesMatch(evalLosses(runs[0].res.Points, s.evalEvery, s.replicaIters),
		evalLosses(twin.Points, s.evalEvery, s.replicaIters)) {
		res.fail(s.replicaIters, checkLoss)
	}
	res.Failed = min(res.Failed, res.Attempted)

	var blocks []*block
	var setups, crossS, crossIter, finals []float64
	if !cfg.trace {
		trials := trainSetups
		if cfg.quick {
			trials = 1
		}
		calBefore := cal.read()
		for i := 0; i < trials; i++ {
			sec, err := trainSetupOnly(s, cfg.seed*1000+int64(seeds+i))
			if err != nil {
				return nil, err
			}
			calAfter := cal.read()
			setups = append(setups, calibrate(sec, calBefore, calAfter))
			calBefore = calAfter
		}
	}
	for _, o := range runs {
		blocks = append(blocks, o.meter.blocks...)
		crossS = append(crossS, o.atS)
		crossIter = append(crossIter, float64(o.atEval))
		finals = append(finals, o.res.FinalLoss)
	}
	lastRun := runs[len(runs)-1]
	fillHarnessDiag(res.Diag, blocks)
	res.Blocks = viewBlocks(blocks)
	res.Diag["seeds"] = float64(seeds)
	res.Diag["iters_to_target"] = median(crossIter)
	res.Diag["final_loss"] = mean(finals)
	if !cfg.trace {
		res.Metrics["setup_s"] = median(setups)
		res.Metrics["op_ms"] = opMs(selectBlocks(blocks, false))
		res.Metrics["time_to_target_s"] = median(crossS)
		res.Metrics["model_sync_cost"] = twin.ExposedComm * 1e3 / alphaMs
		res.Metrics["wire_bytes_per_sync"] = float64(lastRun.report.TotalBytesRecv()) / float64(s.iters)
		res.Metrics["exposed_comm_frac"] = twin.ExposedComm / (twin.ExposedComm + twin.OverlapSaved)
		res.Metrics["heap_mb"] = lastRun.meter.heapMB
		return res, nil
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = 0
	}
	trainLayerMetrics(res, s, cfg, cal, tr, runs, blocks, twin)
	path, err := tr.writeFile(cfg.outDir, name)
	if err != nil {
		return nil, err
	}
	res.TraceFile = path
	return res, nil
}
