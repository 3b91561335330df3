package main

// metricDef names one metric and its unit. BENCHMARK.json repeats these
// (with direction and bound); TestBenchmarkJSONMatchesRegistry keeps the
// two in step.
type metricDef struct {
	name, unit string
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them and none is ever zero, so each (metric, workload) cell
// is gateable against the parent commit. An op is one synchronization on
// sync-* and one training iteration on train-*.
var endToEnd = []metricDef{
	{"setup_s", "s"},               // workload start → first timed op, median of the run's set-ups
	{"op_ms", "ms"},                // calibrated rank-0 barrier-to-barrier time of one op
	{"time_to_target_s", "s"},      // calibrated time to the workload's target: loss target (train), fixed op count (sync)
	{"model_sync_cost", "alpha"},   // α-β model cost of one op's synchronization in units of α, simnet replica
	{"wire_bytes_per_sync", "B"},   // cluster-wide bytes received per op
	{"exposed_comm_frac", "ratio"}, // exposed / (exposed + hidden) communication, simnet replica
	{"heap_mb", "MB"},              // HeapInuse after a forced GC at the end of the timed window
}

// perLayer lists the traced pass's metrics: span-derived self times and
// counts, kernel replays, reference runs, and harness diagnostics. A layer
// a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"core.reduce_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.dense_pass_ms", "ms"},
	{"core.effective_k", "count"},
	{"sparse.topk_ms", "ms"},
	{"sparse.topk_melems_per_s", "Melem/s"},
	{"sparse.merge_ms", "ms"},
	{"wire.encode_ms", "ms"},
	{"wire.decode_ms", "ms"},
	{"wire.bytes_per_entry", "B"},
	{"comm.rounds", "count"},
	{"comm.msgs", "count"},
	{"comm.bytes_recv_max", "B"},
	{"comm.send_ms", "ms"},
	{"comm.recv_ms", "ms"},
	{"comm.barrier_ms", "ms"},
	{"comm.join_ms", "ms"},
	{"comm.marshal_ms", "ms"},
	{"comm.unmarshal_ms", "ms"},
	{"tcpnet.rendezvous_ms", "ms"},
	{"collective.bruck_ms", "ms"},
	{"collective.dense_allreduce_ms", "ms"},
	{"sparsecoll.dense_reduce_ms", "ms"},
	{"sparsecoll.segment_reduce_ms", "ms"},
	{"pipeline.run_ms", "ms"},
	{"pipeline.buckets", "count"},
	{"train.step_ms", "ms"},
	{"train.reduce_ms", "ms"},
	{"train.comm_share", "ratio"},
	{"train.other_ms", "ms"},
	{"train.eval_ms", "ms"},
	{"train.iters_to_target", "iters"},
	{"train.final_loss", "loss"},
	{"train.single_worker_step_ms", "ms"},
	{"train.dense_final_loss", "loss"},
	{"nn.fwd_ms", "ms"},
	{"nn.bwd_ms", "ms"},
	{"nn.sgd_ms", "ms"},
	{"data.batch_ms", "ms"},
	{"spardl.op_ms_raw_p50", "ms"},
	{"spardl.op_ms_raw_p90", "ms"},
	{"spardl.cal_ms", "ms"},
	{"spardl.allocs_per_op", "count"},
	{"spardl.gc_pause_ms_per_op", "ms"},
	{"spardl.trace_overhead_frac", "ratio"},
	{"spardl.trace_coverage", "ratio"},
}

// result is one run of one workload: the shared schema every workload
// fills, whichever backend and reducer it drives.
type result struct {
	Workload  string
	Seed      int64
	Traced    bool
	Attempted int
	Failed    int
	Failures  []string           // which correctness checks fired
	Metrics   map[string]float64 // end-to-end on untraced runs, per-layer on traced ones
	Diag      map[string]float64 // ungated raw figures, printed but not in the result line
	Blocks    []blockView        // the untraced blocks behind op_ms, for eyeballing drift
	TraceFile string
}

// blockView is one untraced block as printed: its raw median, the kernel
// readings around it, and the calibrated median they give.
type blockView struct{ rawMs, calBefore, calAfter, calibratedMs float64 }

func viewBlocks(blocks []*block) []blockView {
	var out []blockView
	for _, b := range selectBlocks(blocks, false) {
		raw := median(b.samples)
		out = append(out, blockView{raw, b.calBefore, b.calAfter, calibrate(raw, b.calBefore, b.calAfter)})
	}
	return out
}

func (r *result) fail(ops int, check string) {
	r.Failed += ops
	r.Failures = append(r.Failures, check)
}
