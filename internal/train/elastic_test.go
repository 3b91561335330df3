package train

import (
	"strings"
	"testing"

	"spardl/internal/chaos"
	"spardl/internal/core"
	"spardl/internal/livenet"
)

func elasticConfig() Config {
	cfg := baseConfig()
	cfg.P = 4
	cfg.Iters = 10
	cfg.EvalEvery = 2
	cfg.Factory = core.NewElasticFactory(core.Options{Teams: 2})
	cfg.Backend = livenet.NewBackend()
	cfg.Elastic = &ElasticConfig{MinP: 2, MaxRestarts: 2}
	return cfg
}

// TestRunElasticHealthyMatchesRun pins that the elastic path is a strict
// superset: with no faults scheduled, RunElastic walks the exact same
// trajectory as plain Run on the same backend.
func TestRunElasticHealthyMatchesRun(t *testing.T) {
	cfg := elasticConfig()
	plain := Run(cfg)
	el, recs, err := RunElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("healthy run reported recoveries: %+v", recs)
	}
	if len(el.Points) != len(plain.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(el.Points), len(plain.Points))
	}
	for i := range plain.Points {
		if el.Points[i].Loss != plain.Points[i].Loss || el.Points[i].Metric != plain.Points[i].Metric {
			t.Fatalf("trajectory diverged at point %d: %+v vs %+v", i, el.Points[i], plain.Points[i])
		}
	}
	if el.FinalLoss != plain.FinalLoss {
		t.Fatalf("final loss diverged: %g vs %g", el.FinalLoss, plain.FinalLoss)
	}
}

// TestRunElasticSurvivesCrash drives a scheduled mid-training crash: the
// fleet must shrink from 4 to 3 workers, re-fit its team count, resume from
// the last globally completed iteration, and produce a deterministic
// trajectory (two identical runs agree bit-for-bit).
func TestRunElasticSurvivesCrash(t *testing.T) {
	sched, err := chaos.Parse("crash:rank=3,iter=4")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Result, []RecoveryStat) {
		cfg := elasticConfig()
		cfg.Backend = livenet.NewChaosBackend(sched)
		res, recs, err := RunElastic(cfg)
		if err != nil {
			t.Fatalf("elastic run failed: %v", err)
		}
		return res, recs
	}
	res, recs := run()
	if len(recs) != 1 {
		t.Fatalf("recoveries: %+v", recs)
	}
	r := recs[0]
	if r.Gen != 1 || r.P != 3 || len(r.Lost) != 1 || r.Lost[0] != 3 {
		t.Fatalf("recovery record: %+v", r)
	}
	if r.ResumeIter != 4 {
		t.Fatalf("resume iter = %d, want 4 (the crash barrier)", r.ResumeIter)
	}
	if !strings.Contains(r.Cause, "(scheduled)") {
		t.Fatalf("cause does not name the scheduled crash: %q", r.Cause)
	}
	if r.RejoinSeconds < 0 || r.FirstRoundSeconds <= 0 {
		t.Fatalf("recovery latency not measured: %+v", r)
	}
	if len(res.Points) == 0 || res.Points[len(res.Points)-1].Iter != 10 {
		t.Fatalf("shrunk run did not complete training: %+v", res.Points)
	}
	res2, _ := run()
	if len(res2.Points) != len(res.Points) {
		t.Fatalf("replay changed point count: %d vs %d", len(res2.Points), len(res.Points))
	}
	for i := range res.Points {
		if res.Points[i].Loss != res2.Points[i].Loss || res.Points[i].Metric != res2.Points[i].Metric {
			t.Fatalf("replay diverged at point %d: %+v vs %+v", i, res.Points[i], res2.Points[i])
		}
	}
}

// TestRunElasticTransientFaultKeepsTrajectory pins the retry path: a
// one-shot corrupted frame poisons the fabric, the full membership
// re-forms, and — because the resume point rewinds to the last completed
// barrier and the injector state carries over — the final trajectory is
// bit-identical to the healthy run's.
func TestRunElasticTransientFaultKeepsTrajectory(t *testing.T) {
	healthy, _, err := RunElastic(elasticConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := chaos.Parse("corrupt:rank=1,peer=0,frame=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := elasticConfig()
	cfg.Backend = livenet.NewChaosBackend(sched)
	res, recs, err := RunElastic(cfg)
	if err != nil {
		t.Fatalf("elastic run failed: %v", err)
	}
	if len(recs) != 1 || recs[0].P != 4 || len(recs[0].Lost) != 0 {
		t.Fatalf("transient fault must retry at full membership: %+v", recs)
	}
	if len(res.Points) != len(healthy.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(res.Points), len(healthy.Points))
	}
	for i := range healthy.Points {
		if res.Points[i].Loss != healthy.Points[i].Loss || res.Points[i].Metric != healthy.Points[i].Metric {
			t.Fatalf("recovered trajectory diverged at point %d: %+v vs %+v", i, res.Points[i], healthy.Points[i])
		}
	}
}

// TestRunElasticRejectsUnsupportedBackend pins the config-error path.
func TestRunElasticRejectsUnsupportedBackend(t *testing.T) {
	cfg := elasticConfig()
	cfg.Backend = nil
	if _, _, err := RunElastic(cfg); err == nil {
		t.Fatal("nil backend must be rejected")
	}
}

// TestRunElasticTimingsCoverRecovery pins the Result's time axis across a
// re-rendezvous: every fabric's wall clock restarts at zero, so the
// trajectory must run on one session clock (Point.Time strictly increasing
// through the recovery, TotalTime at its end), and the per-iteration
// averages must be taken over every iteration — each as the generation
// that ran it last paid it — not over the last generation's counters.
func TestRunElasticTimingsCoverRecovery(t *testing.T) {
	sched, err := chaos.Parse("crash:rank=3,iter=4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := elasticConfig()
	cfg.EvalEvery = 1
	cfg.Backend = livenet.NewChaosBackend(sched)
	res, recs, err := RunElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ResumeIter != 4 {
		t.Fatalf("recoveries: %+v", recs)
	}
	if len(res.Points) != cfg.Iters {
		t.Fatalf("%d points for %d iterations", len(res.Points), cfg.Iters)
	}
	for i, pt := range res.Points {
		if pt.Iter != i+1 {
			t.Fatalf("point %d is iteration %d", i, pt.Iter)
		}
		if i > 0 && pt.Time <= res.Points[i-1].Time {
			t.Fatalf("time went backwards across iteration %d: %g after %g (recovery resumed at %d)",
				pt.Iter, pt.Time, res.Points[i-1].Time, recs[0].ResumeIter)
		}
	}
	if last := res.Points[len(res.Points)-1].Time; res.TotalTime < last || res.PerUpdateTime != res.TotalTime/float64(cfg.Iters) {
		t.Fatalf("TotalTime %g / PerUpdateTime %g do not end the trajectory at %g", res.TotalTime, res.PerUpdateTime, last)
	}

	// Iterations 0-3 ran at P=4 and 4-9 at P=3. Every iteration charges
	// the case's modeled forward+backward time, so an average over all ten
	// is at least that; the last generation's counters alone cover six.
	if res.CompTime < cfg.Case.ComputeTime {
		t.Fatalf("CompTime %g per iteration covers fewer than all %d iterations (each charges %g)",
			res.CompTime, cfg.Iters, cfg.Case.ComputeTime)
	}
	if res.MaxRounds <= 0 || res.BytesPerIter <= 0 || res.CommTime <= 0 || res.ExposedComm <= 0 {
		t.Fatalf("per-iteration averages not filled: %+v", res)
	}
}
