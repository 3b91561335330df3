package main

import "fmt"

// runConfig is what the command line asks of one workload run.
type runConfig struct {
	seed    int64
	seconds float64 // length of the timed window
	trace   bool
	quick   bool   // smoke sizes: seconds of work shrink to milliseconds
	outDir  string // where traces go
}

// workload is one named set of inputs. why is the one-line reason it is
// in the benchmark; BENCHMARK.json repeats it.
type workload struct {
	name string
	why  string
	sync *syncSpec
	tr   *trainSpec
}

// workloads are the five inputs every performance claim names. Sizes were
// chosen so one layer dominates each (see README.md): selection and dense
// passes, per-message transport cost, bandwidth, many small bucket calls,
// and model compute.
var workloads = []workload{
	{
		name: "sync-sim-1m",
		why:  "SparDL d=1, P=14, n=2^20, k=n/100 on simnet: top-k selection and dense n-vector passes dominate; transport and codec do nothing",
		sync: &syncSpec{fabric: "simnet", p: 14, n: 1 << 20, quickN: 1 << 14, density: 0.01,
			teams: 1, grads: gradShared, blockOps: 8},
	},
	{
		name: "sync-tcp-small",
		why:  "SparDL d=2 (R-SAG), P=8, n=4096 on loopback tcpnet: message-rate bound, per-message marshal/frame/writev/wake-up cost dominates; selection is negligible",
		sync: &syncSpec{fabric: "tcpnet", p: 8, n: 4096, quickN: 4096, density: 0.1,
			teams: 2, grads: gradIndependent, blockOps: 800},
	},
	{
		name: "sync-tcp-dense",
		why:  "dense all-reduce, P=8, n=2^18 on loopback tcpnet: bandwidth bound, few huge frames; bypasses sparse, wire and core (the paper's dense reference)",
		sync: &syncSpec{fabric: "tcpnet", p: 8, n: 1 << 18, quickN: 1 << 12, density: 1,
			teams: 0, grads: gradIndependent, blockOps: 80},
	},
	{
		name: "sync-live-buckets",
		why:  "per-layer pipeline.Schedule over the 12 BERT-like tensors, P=4 on livenet: the same kernels called 12x per sync on 128 to 100k element segments",
		sync: &syncSpec{fabric: "livenet", p: 4, density: 0.01,
			teams: 1, grads: gradShared, buckets: true, blockOps: 48},
	},
	{
		name: "train-live-resmlp",
		why:  "train.Run case 3 (ResMLP), SparDL d=1, P=4 on livenet: forward/backward dominate, so it bounds what a comm change buys and catches convergence changes",
		tr: &trainSpec{caseID: 3, p: 4, density: 0.01, iters: 101, evalEvery: 10, evalBatch: 1024,
			blockOps: 20, targetLoss: 0.75, quickTargetLoss: 10, replicaIters: 30},
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run executes the workload once and fills the shared result schema:
// end-to-end metrics on an untraced run, per-layer metrics on a traced one.
func (w *workload) run(cfg runConfig, cal *calKernel) (*result, error) {
	if w.sync != nil {
		return runSyncWorkload(w.name, *w.sync, cfg, cal)
	}
	return runTrainWorkload(w.name, *w.tr, cfg, cal)
}

// runSyncWorkload measures, replicates on simnet, checks, and reports.
func runSyncWorkload(name string, s syncSpec, cfg runConfig, cal *calKernel) (*result, error) {
	obs, err := measureSync(s, cfg, cal)
	if err != nil {
		return nil, err
	}
	// The replica always runs the workload's real reducer, so a reducer
	// that corrupts values on the measured fabric is caught against it.
	clean := s
	clean.factory = nil
	rep, err := runSyncReplica(clean, obs.n, obs.k, obs.grads)
	if err != nil {
		return nil, err
	}
	m := obs.meter
	res := &result{Workload: name, Seed: cfg.seed, Traced: cfg.trace,
		Attempted: m.ops + 1, Metrics: map[string]float64{}, Diag: map[string]float64{}}
	if !ranksIdentical(obs.finalHash) {
		res.fail(1, checkRanks)
	}
	ok, massErr := massConserved(obs.injected, obs.injectedSq, obs.leftover, obs.delivered)
	if !ok {
		res.fail(1, checkMass)
	}
	if !replicaMatches(obs.warmHash, rep) {
		res.fail(1, checkReplica)
	}
	res.Failed = min(res.Failed, res.Attempted)

	untraced := selectBlocks(m.blocks, false)
	ops := float64(m.ops + 1) // stats restart after warm-up and cover the verified sync
	res.Diag["mass_rel_err"] = massErr
	res.Diag["ops"] = float64(m.ops)
	res.Diag["blocks"] = float64(len(m.blocks))
	fillHarnessDiag(res.Diag, m.blocks)
	res.Blocks = viewBlocks(m.blocks)
	if !cfg.trace {
		res.Metrics["setup_s"] = median(obs.setups)
		res.Metrics["op_ms"] = opMs(untraced)
		res.Metrics["time_to_target_s"] = windowSeconds(untraced)
		res.Metrics["model_sync_cost"] = rep.modelMs / alphaMs
		res.Metrics["wire_bytes_per_sync"] = float64(obs.report.TotalBytesRecv()) / ops
		res.Metrics["exposed_comm_frac"] = rep.exposedFrac
		res.Metrics["heap_mb"] = m.heapMB
		return res, nil
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = 0
	}
	syncLayerMetrics(res, s, cal, obs, rep)
	path, err := obs.tracer.writeFile(cfg.outDir, name)
	if err != nil {
		return nil, err
	}
	res.TraceFile = path
	return res, nil
}

// syncTargetOps is the sync workloads' target for time_to_target_s: the
// calibrated time to deliver this many synchronizations at the window's
// mean rate. Unlike op_ms (a median of medians) it is built from block
// means, so it also moves with tail stalls and GC pauses.
const syncTargetOps = 64

// windowSeconds is syncTargetOps × the median over blocks of the block's
// calibrated mean op time: the mean keeps every op of a block in the
// figure, the median over blocks drops the block a neighbour's burst hit.
func windowSeconds(blocks []*block) float64 {
	var per []float64
	for _, b := range blocks {
		if len(b.samples) > 0 {
			per = append(per, calibrate(mean(b.samples), b.calBefore, b.calAfter))
		}
	}
	return median(per) * syncTargetOps / 1e3
}

// fillHarnessDiag records the raw, ungated figures every workload shares.
func fillHarnessDiag(diag map[string]float64, blocks []*block) {
	untraced := selectBlocks(blocks, false)
	raw := allSamples(untraced)
	diag["op_ms_raw_p50"] = quantile(raw, 0.5)
	diag["op_ms_raw_p90"] = quantile(raw, 0.9)
	var cals, allocs, pauses []float64
	for _, b := range blocks {
		cals = append(cals, b.calBefore)
	}
	for _, b := range untraced {
		if n := float64(len(b.samples)); n > 0 {
			allocs = append(allocs, float64(b.mallocs)/n)
			pauses = append(pauses, float64(b.gcPauseNs)/1e6/n)
		}
	}
	diag["cal_ms"] = median(cals)
	diag["allocs_per_op"] = median(allocs)
	diag["gc_pause_ms_per_op"] = mean(pauses)
}
