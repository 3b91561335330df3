package main

import (
	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/livenet"
	"spardl/internal/sparsecoll"
	"spardl/internal/train"
)

// spanStats aggregates spans. Times are milliseconds summed over every
// traced op of the ranks folded in; divide by ops (and ranks) for per-op,
// per-worker figures.
type spanStats struct {
	total [numSpanNames]float64 // span durations
	count [numSpanNames]int
	// commInReduce is the send/recv time whose direct parent is a reduce
	// span: what the reducer spent in the fabric rather than in itself.
	commInReduce float64
	// mainSelf sums self time (duration minus same-lane children) over
	// main-lane spans only: stream-lane spans run concurrently and are
	// already inside comm.join on the main lane.
	mainSelf  float64
	recvBytes []int64 // accounted sizes of the first traced op's messages
	sendBytes []int64
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// aggregate folds the closed spans of the given ranks.
func aggregate(ranks ...*rankTrace) spanStats {
	var st spanStats
	for _, rt := range ranks {
		st.fold(rt.spans)
	}
	return st
}

// fold adds one rank's spans. Children always follow their parent in the
// slice, so one backward pass has every child's duration subtracted before
// the parent's self time is read.
func (st *spanStats) fold(spans []span) {
	childNs := make([]int64, len(spans))
	firstOp := int32(-1)
	for i := len(spans) - 1; i >= 0; i-- {
		s := spans[i]
		if s.End == 0 {
			continue // left open by a panic; the run has already failed
		}
		dur := s.End - s.Start
		st.total[s.Name] += ms(dur)
		st.count[s.Name]++
		if !s.Stream {
			st.mainSelf += ms(dur - childNs[i])
		}
		if s.Parent >= 0 {
			parent := spans[s.Parent]
			if parent.Stream == s.Stream {
				childNs[s.Parent] += dur
			}
			if (s.Name == spSend || s.Name == spRecv) && (parent.Name == spCoreReduce || parent.Name == spDenseReduce) {
				st.commInReduce += ms(dur)
			}
		}
	}
	for _, s := range spans {
		if firstOp < 0 {
			firstOp = s.Op
		}
		if s.Op != firstOp {
			break
		}
		switch s.Name {
		case spRecv:
			st.recvBytes = append(st.recvBytes, s.Bytes)
		case spSend:
			st.sendBytes = append(st.sendBytes, s.Bytes)
		}
	}
}

// tracedOps counts the ops the traced blocks timed, and their raw wall.
func tracedOps(blocks []*block) (ops int, wallMs float64) {
	for _, b := range selectBlocks(blocks, true) {
		ops += len(b.samples)
		for _, s := range b.samples {
			wallMs += s
		}
	}
	return ops, wallMs
}

// fillCommon writes the metrics every workload derives the same way and
// returns the all-rank span totals with the factor that turns them into
// per-op, per-worker milliseconds. Span times are averaged over ranks: the
// workers run the same program in lockstep, so the mean is one worker's
// time with P times the samples. Counts come from the run's comm.Stats,
// coverage from rank 0 alone (the rank whose wall clock is op_ms). Every
// millisecond figure is calibrated like op_ms: spans by the traced blocks'
// factor, replays by kernel readings taken around them.
func fillCommon(res *result, cal *calKernel, tr *tracer, blocks []*block, report *comm.Report, statOps float64, in *replayInput) (spanStats, float64) {
	ops, wallMs := tracedOps(blocks)
	st := aggregate(tr.ranks...)
	if ops == 0 {
		return st, 0
	}
	rank0 := aggregate(tr.ranks[0])
	in.recvBytes, in.sendBytes = rank0.recvBytes, rank0.sendBytes
	perOp := tracedFactor(blocks) / float64(ops*len(tr.ranks))
	mt := res.Metrics
	mt["comm.send_ms"] = st.total[spSend] * perOp
	mt["comm.recv_ms"] = st.total[spRecv] * perOp
	mt["comm.barrier_ms"] = st.total[spBarrier] * perOp
	mt["comm.join_ms"] = st.total[spJoin] * perOp
	mt["comm.rounds"] = float64(report.MaxRounds()) / statOps
	msgs := 0
	for _, w := range report.PerWorker {
		msgs = max(msgs, w.MsgsSent)
	}
	mt["comm.msgs"] = float64(msgs) / statOps
	mt["comm.bytes_recv_max"] = float64(report.MaxBytesRecv()) / statOps
	var accounted int64 // rank 0's received COO bytes in one op: 8 per entry
	for _, b := range in.recvBytes {
		accounted += b
	}
	if in.teams > 0 && accounted > 0 {
		// Rank 0's accounted volume stands for every rank's: the schedules
		// are symmetric, and the exact cluster-wide real volume is known.
		mt["wire.bytes_per_entry"] = float64(report.TotalBytesRecv()) / statOps /
			(float64(accounted) / 8 * float64(in.p))
	}
	calBefore := cal.read()
	mt["sparse.topk_ms"] = replaySelect(*in)
	mt["sparse.merge_ms"] = replayMerge(*in)
	mt["wire.encode_ms"], mt["wire.decode_ms"] = replayWire(*in)
	mt["comm.marshal_ms"], mt["comm.unmarshal_ms"] = replayPayload(*in)
	mt["collective.bruck_ms"] = replayBruck(*in)
	mt["collective.dense_allreduce_ms"] = replayDenseAllReduce(*in)
	f := calFactor(calBefore, cal.read())
	for _, name := range []string{"sparse.topk_ms", "sparse.merge_ms", "wire.encode_ms", "wire.decode_ms",
		"comm.marshal_ms", "comm.unmarshal_ms", "collective.bruck_ms", "collective.dense_allreduce_ms"} {
		mt[name] *= f
	}
	if mt["sparse.topk_ms"] > 0 {
		mt["sparse.topk_melems_per_s"] = float64(in.n) / 1e6 / (mt["sparse.topk_ms"] / 1e3)
	}

	mt["spardl.op_ms_raw_p50"] = res.Diag["op_ms_raw_p50"]
	mt["spardl.op_ms_raw_p90"] = res.Diag["op_ms_raw_p90"]
	mt["spardl.cal_ms"] = res.Diag["cal_ms"]
	mt["spardl.allocs_per_op"] = res.Diag["allocs_per_op"]
	mt["spardl.gc_pause_ms_per_op"] = res.Diag["gc_pause_ms_per_op"]
	if base := opMs(selectBlocks(blocks, false)); base > 0 {
		mt["spardl.trace_overhead_frac"] = opMs(selectBlocks(blocks, true))/base - 1
	}
	mt["spardl.trace_coverage"] = rank0.mainSelf / wallMs
	return st, perOp
}

// tracedFactor is the mean raw→calibrated multiplier of the traced blocks.
func tracedFactor(blocks []*block) float64 {
	var fs []float64
	for _, b := range selectBlocks(blocks, true) {
		fs = append(fs, b.factor())
	}
	if len(fs) == 0 {
		return 1
	}
	return mean(fs)
}

// coreMetrics fills core.* from the reduce spans and the replays.
func coreMetrics(mt map[string]float64, st spanStats, perOp float64) {
	mt["core.reduce_ms"] = st.total[spCoreReduce] * perOp
	mt["core.self_ms"] = (st.total[spCoreReduce] - st.commInReduce) * perOp
	mt["core.dense_pass_ms"] = mt["core.self_ms"] - mt["sparse.topk_ms"] - mt["sparse.merge_ms"]
}

// syncLayerMetrics fills the per-layer metrics of a sync workload from
// the spans, the run's comm.Stats, and the kernel replays.
func syncLayerMetrics(res *result, s syncSpec, cal *calKernel, obs *syncObservation, rep syncReplica) {
	in := replayInput{fabric: s.fabric, p: obs.p, n: obs.n, k: obs.k, teams: s.teams, buckets: s.buckets,
		grads: obs.grads}
	statOps := float64(obs.meter.ops + 1) // Stats cover the verified sync too
	st, perOp := fillCommon(res, cal, obs.tracer, obs.meter.blocks, obs.report, statOps, &in)
	mt := res.Metrics
	if s.fabric == "tcpnet" {
		mt["tcpnet.rendezvous_ms"] = obs.rendezvous
	}
	mt["sparsecoll.dense_reduce_ms"] = st.total[spDenseReduce] * perOp
	mt["pipeline.run_ms"] = st.total[spPipelineRun] * perOp
	mt["pipeline.buckets"] = float64(obs.buckets)
	mt["sparsecoll.segment_reduce_ms"] = st.total[spOverlap] * perOp
	if s.teams > 0 {
		coreMetrics(mt, st, perOp)
		mt["core.effective_k"] = float64(obs.deliveredNZ)
	}
	res.Diag["replica_rounds"] = float64(rep.rounds)
	res.Diag["replica_bytes_recv_max"] = rep.bytesMax
}

// trainLayerMetrics fills the per-layer metrics of the training workload:
// spans give batch, forward, reduce, barrier and eval; Backward and
// SGD.Step come from a replay; two reference runs give the ungated
// single-worker and dense baselines.
func trainLayerMetrics(res *result, s trainSpec, cfg runConfig, cal *calKernel, tr *tracer,
	runs []*trainObservation, blocks []*block, twin *train.Result) {
	lastRun := runs[len(runs)-1]
	in := replayInput{fabric: "livenet", p: s.p, n: lastRun.res.N, k: lastRun.res.K, teams: 1,
		grads: genGrads(cfg.seed, s.p, lastRun.res.N, gradShared)}
	st, perOp := fillCommon(res, cal, tr, blocks, lastRun.report, float64(s.iters), &in)
	c := train.CaseByID(s.caseID)
	mt := res.Metrics
	calBefore := cal.read()
	bwd, sgd := replayBackward(c, s.p, c.BatchSize)
	f := calFactor(calBefore, cal.read())
	mt["nn.bwd_ms"], mt["nn.sgd_ms"] = bwd*f, sgd*f
	ops, wallMs := tracedOps(blocks)
	wallMs *= tracedFactor(blocks)
	if ops > 0 {
		// Backward and the optimizer step are inside no span; the replay
		// stands in for them on rank 0's timeline.
		mt["spardl.trace_coverage"] += float64(ops) * (mt["nn.bwd_ms"] + mt["nn.sgd_ms"]) / wallMs
	}
	mt["train.step_ms"] = opMs(selectBlocks(blocks, true))
	coreMetrics(mt, st, perOp)
	mt["train.reduce_ms"] = mt["core.reduce_ms"]
	mt["core.effective_k"] = float64(max(1, lastRun.res.K/s.p) * s.p) // m·max(1,⌊k/m⌋); the trainer's output is not observable
	mt["nn.fwd_ms"] = st.total[spFwd] * perOp
	mt["data.batch_ms"] = st.total[spBatch] * perOp
	if n := st.count[spEval]; n > 0 {
		mt["train.eval_ms"] = st.total[spEval] / float64(n) * tracedFactor(blocks)
	}
	// A worker's own synchronization work as a share of all its work per
	// step. train.reduce_ms is not the numerator: on shared cores most of
	// it is waiting for peers that are still in their backward pass.
	syncWork := mt["core.self_ms"] + mt["comm.send_ms"]
	if work := syncWork + mt["nn.fwd_ms"] + mt["nn.bwd_ms"] + mt["nn.sgd_ms"] + mt["data.batch_ms"]; work > 0 {
		mt["train.comm_share"] = syncWork / work
	}
	if ops > 0 {
		mt["train.other_ms"] = wallMs/float64(ops) - mt["nn.fwd_ms"] - mt["train.reduce_ms"] - mt["data.batch_ms"] -
			mt["comm.barrier_ms"] - st.total[spEval]*perOp
	}
	mt["train.iters_to_target"] = res.Diag["iters_to_target"]
	mt["train.final_loss"] = res.Diag["final_loss"]

	// Ungated baselines: the same task on one worker, and dense P-worker
	// training to the same iteration count.
	single := s
	single.iters = min(s.iters, 3*s.blockOps+1)
	if one, err := trainOnce(single, runs[0].seed, 1, livenet.NewBackend(), core.NewFactory(core.Options{}), cal, nil); err == nil {
		mt["train.single_worker_step_ms"] = opMs(one.meter.blocks)
	}
	dense := train.Run(train.Config{Case: c, P: s.p, KRatio: s.density, Factory: sparsecoll.NewDense,
		Iters: s.iters, Seed: runs[0].seed, EvalEvery: s.evalEvery, EvalBatch: s.evalBatch})
	mt["train.dense_final_loss"] = dense.FinalLoss
	res.Diag["replica_rounds"] = float64(twin.MaxRounds)
}
