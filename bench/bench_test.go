package main

import (
	"math"
	"slices"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/sparsecoll"
)

// Every test runs at -quick sizes (two-op blocks, one set-up), so the
// package stays within seconds with or without -short.
var quickCfg = runConfig{seed: 3, seconds: 0, quick: true}

func init() { replayBudgetMs = 5 }

func TestCalibrate(t *testing.T) {
	cases := []struct{ raw, before, after, want float64 }{
		{100, calRefMs, calRefMs, 100},        // the reference host reads raw
		{100, 2 * calRefMs, 2 * calRefMs, 50}, // a host half as fast halves the figure
		{100, calRefMs, 3 * calRefMs, 50},     // the mean of the two readings scales
		{100, 0.5 * calRefMs, 0.5 * calRefMs, 200},
		{100, 0, 0, 100}, // no reading: unscaled rather than infinite
	}
	for _, c := range cases {
		if got := calibrate(c.raw, c.before, c.after); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("calibrate(%g, %g, %g) = %g, want %g", c.raw, c.before, c.after, got, c.want)
		}
	}
	b := &block{calBefore: 2 * calRefMs, calAfter: 2 * calRefMs, samples: []float64{9, 10, 11}}
	if got := opMs([]*block{b}); math.Abs(got-5) > 1e-9 {
		t.Errorf("opMs of one block = %g, want the calibrated median 5", got)
	}
}

func TestCalKernelRuns(t *testing.T) {
	if ms := newCalKernel(true).run(); ms <= 0 {
		t.Fatalf("calibration kernel took %g ms", ms)
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metric and
// workload registries in step: same names, same units, same order.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the registry %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / registry %q (or their why lines) differ", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the registry %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], registry %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: better=%q bound=%g", m.Name, m.Better, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the registry %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], registry %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmokeEveryWorkload runs each workload untraced and traced and checks
// the shared schema: no failed op, every end-to-end metric present and
// non-zero, every per-layer metric present and finite.
func TestSmokeEveryWorkload(t *testing.T) {
	cal := newCalKernel(true)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := quickCfg
			res, err := w.run(cfg, cal)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reported %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v); an end-to-end metric is never zero", d.name, v, ok)
				}
			}
			cfg.trace, cfg.outDir = true, t.TempDir()
			res, err = w.run(cfg, cal)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("traced run failed %d ops: %v", res.Failed, res.Failures)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reported %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if v, ok := res.Metrics[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v)", d.name, v, ok)
				}
			}
			// Spans cover a sync op by construction. A training step's
			// Backward and SGD are attributed from a replay, which over five
			// smoke-size steps (or under -race) is only roughly the same work.
			lo, hi := 0.9, 1.1
			if w.tr != nil {
				lo, hi = 0.5, 1.5
			}
			if cov := res.Metrics["spardl.trace_coverage"]; cov < lo || cov > hi {
				t.Errorf("trace coverage %g outside [%g, %g]", cov, lo, hi)
			}
			if res.TraceFile == "" {
				t.Error("traced run wrote no trace file")
			}
		})
	}
}

// corruptingFactory wraps SparDL so that the delivered gradient is off by
// one value — on one rank only, or on every rank alike.
func corruptingFactory(onlyRank int) sparsecoll.Factory {
	base := core.NewFactory(core.Options{})
	return func(p, rank, n, k int) sparsecoll.Reducer {
		return &corruptReducer{Reducer: base(p, rank, n, k), hit: onlyRank < 0 || rank == onlyRank}
	}
}

type corruptReducer struct {
	sparsecoll.Reducer
	hit bool
}

func (c *corruptReducer) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	sparsecoll.ReduceInto(c.Reducer, ep, grad, out)
	if c.hit {
		out[len(out)/2] += 1
	}
}

func (c *corruptReducer) Residual() []float32 { return residualOf(c.Reducer) }

// TestEveryCheckFires corrupts one delivered value and asserts that each
// correctness check catches the corruption it exists for.
func TestEveryCheckFires(t *testing.T) {
	cal := newCalKernel(true)
	spec := syncSpec{fabric: "livenet", p: 4, n: 4096, quickN: 4096, density: 0.05, teams: 1,
		grads: gradShared, blockOps: 2}
	fired := func(t *testing.T, factory sparsecoll.Factory) []string {
		s := spec
		s.factory = factory
		res, err := runSyncWorkload("corrupt", s, quickCfg, cal)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Failed > 0) != (len(res.Failures) > 0) {
			t.Fatalf("failed=%d but failures=%v", res.Failed, res.Failures)
		}
		return res.Failures
	}
	t.Run("clean", func(t *testing.T) {
		if got := fired(t, nil); len(got) != 0 {
			t.Fatalf("uncorrupted run fired %v", got)
		}
	})
	t.Run("one rank differs", func(t *testing.T) {
		if got := fired(t, corruptingFactory(1)); !slices.Contains(got, checkRanks) {
			t.Fatalf("a value corrupted on rank 1 only fired %v, want %s", got, checkRanks)
		}
	})
	t.Run("all ranks alike", func(t *testing.T) {
		got := fired(t, corruptingFactory(-1))
		if slices.Contains(got, checkRanks) {
			t.Errorf("identical corruption must leave the ranks identical, fired %v", got)
		}
		for _, want := range []string{checkMass, checkReplica} {
			if !slices.Contains(got, want) {
				t.Errorf("a value corrupted on every rank fired %v, want %s", got, want)
			}
		}
	})
	train := *workloads[len(workloads)-1].tr
	t.Run("training loss diverges", func(t *testing.T) {
		s := train
		s.factory = corruptingFactory(-1)
		res, err := runTrainWorkload("corrupt", s, quickCfg, cal)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(res.Failures, checkLoss) || res.Failed == 0 {
			t.Fatalf("a corrupted update fired %v (failed %d), want %s", res.Failures, res.Failed, checkLoss)
		}
	})
	t.Run("target never reached", func(t *testing.T) {
		s := train
		s.quickTargetLoss = 0
		res, err := runTrainWorkload("unreachable", s, quickCfg, cal)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(res.Failures, checkTarget) || res.Failed == 0 {
			t.Fatalf("a target loss of 0 fired %v (failed %d), want %s", res.Failures, res.Failed, checkTarget)
		}
	})

	// The pure checks, on hand-made observations.
	if ranksIdentical([]uint64{7, 7, 8}) || !ranksIdentical([]uint64{7, 7, 7}) {
		t.Error("ranksIdentical")
	}
	if ok, _ := massConserved([]float64{10, 5}, []float64{100, 25}, []float64{1, 1}, 13); !ok {
		t.Error("massConserved rejected an exact balance")
	}
	if ok, rel := massConserved([]float64{10, 5}, []float64{100, 25}, []float64{1, 1}, 13.01); ok {
		t.Errorf("massConserved accepted an imbalance of %g", rel)
	}
	if lossesMatch([]float64{1, 2, 3}, []float64{1, 2.0000000000000004}) || !lossesMatch([]float64{1, 2, 3}, []float64{1, 2}) {
		t.Error("lossesMatch")
	}
}

// TestTraceReconciles runs the traced sync-sim-1m schedule (P=14, quick n)
// and reconciles the trace with the run's comm.Stats and the paper's cost
// model.
func TestTraceReconciles(t *testing.T) {
	w, err := workloadByName("sync-sim-1m")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg
	cfg.trace = true
	obs, err := measureSync(*w.sync, cfg, newCalKernel(true))
	if err != nil {
		t.Fatal(err)
	}
	p, k := obs.p, obs.k
	ops, wallMs := tracedOps(obs.meter.blocks)
	if ops == 0 {
		t.Fatal("no traced ops")
	}

	// Children nest inside their parents; an Overlap body starts after the
	// span that launched it.
	for _, rt := range obs.tracer.ranks {
		for _, s := range rt.spans {
			if s.End < s.Start {
				t.Fatalf("rank %d span %d (%s) ends before it starts", s.Rank, s.ID, spanNames[s.Name])
			}
			if s.Parent < 0 {
				continue
			}
			parent := rt.spans[s.Parent]
			if s.Start < parent.Start || (s.Stream == parent.Stream && s.End > parent.End) {
				t.Fatalf("rank %d span %d (%s) [%d,%d] escapes parent %s [%d,%d]", s.Rank, s.ID,
					spanNames[s.Name], s.Start, s.End, spanNames[parent.Name], parent.Start, parent.End)
			}
		}
	}

	// Rounds: the trace, comm.Stats and the closed form 2⌈log₂P⌉ agree.
	wantRounds := 2 * int(math.Ceil(math.Log2(float64(p))))
	if wantRounds != 8 {
		t.Fatalf("2⌈log₂%d⌉ = %d, the workload pins 8", p, wantRounds)
	}
	statOps := obs.meter.ops + 1
	for rank, rt := range obs.tracer.ranks {
		st := aggregate(rt)
		if got := st.count[spRecv]; got != wantRounds*ops {
			t.Errorf("rank %d: %d comm.recv spans over %d traced ops, want %d per op", rank, got, ops, wantRounds)
		}
		if got := obs.report.PerWorker[rank].Rounds; got != wantRounds*statOps {
			t.Errorf("rank %d: Stats.Rounds = %d over %d ops, want %d per op", rank, got, statOps, wantRounds)
		}
	}

	// Bytes: accounted volume within Eq. 4's 4k(P−1)/P elements of 4 bytes.
	bound := 4 * float64(k) * float64(p-1) / float64(p) * 4
	if perOp := float64(obs.report.MaxBytesRecv()) / float64(statOps); perOp > bound {
		t.Errorf("worst worker received %.0f accounted bytes per sync, Eq. 4 allows %.0f", perOp, bound)
	}

	st := aggregate(obs.tracer.ranks[0])
	if cov := st.mainSelf / wallMs; cov < 0.9 || cov > 1.1 {
		t.Errorf("trace coverage %g outside [0.9, 1.1]", cov)
	}
}
