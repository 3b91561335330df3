package train

import (
	"strings"
	"testing"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/livenet"
	"spardl/internal/pipeline"
	"spardl/internal/tcpnet"
)

// The chaos suite: every schedule runs on BOTH live substrates — livenet
// (goroutines over in-memory channels) and loopback tcpnet (goroutines over
// real kernel sockets) — under the identical deterministic fault schedule,
// and either recovers with bit-identical post-shrink trajectories or fails
// fast within the subtest deadline naming the injected root cause. This is
// the tentpole acceptance: the schedule, not the substrate, decides what
// the fleet experiences.

func chaosSuiteConfig(b comm.Backend) Config {
	cfg := baseConfig()
	cfg.P = 4
	cfg.Iters = 8
	cfg.EvalEvery = 2
	cfg.Factory = core.NewFactory(core.Options{Teams: 2})
	cfg.Backend = b
	cfg.Elastic = &ElasticConfig{MinP: 2, MaxRestarts: 2}
	return cfg
}

type chaosRun struct {
	res  *Result
	recs []RecoveryStat
	err  error
}

// runBounded runs RunElastic under a deadline: the fault contract is
// "recover or fail fast", never hang, and a hung fleet must fail the
// subtest rather than stall the whole test run.
func runBounded(t *testing.T, name string, cfg Config) chaosRun {
	t.Helper()
	done := make(chan chaosRun, 1)
	go func() {
		res, recs, err := RunElastic(cfg)
		done <- chaosRun{res, recs, err}
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(90 * time.Second):
		t.Fatalf("%s: chaos run hung past its deadline", name)
		return chaosRun{}
	}
}

// perLayer sets cfg to bucketed training, one bucket per tensor.
func perLayer(cfg Config) Config {
	cfg.Pipeline = &pipeline.Config{}
	return cfg
}

func TestChaosSuiteAcrossBackends(t *testing.T) {
	healthy := runBounded(t, "healthy", chaosSuiteConfig(livenet.NewBackend()))
	if healthy.err != nil {
		t.Fatal(healthy.err)
	}
	healthyPerLayer := runBounded(t, "healthy per-layer", perLayer(chaosSuiteConfig(livenet.NewBackend())))
	if healthyPerLayer.err != nil {
		t.Fatal(healthyPerLayer.err)
	}

	cases := []struct {
		name     string
		schedule string
		recs     int     // expected recovery count on success
		failWith string  // non-empty: the run must fail fast naming this
		lost     [][]int // per-recovery departed IDs (nil slice = none)
		resume   []int   // per-recovery expected ResumeIter
		healthy  bool    // final trajectory must equal the healthy run's
		shaped   bool    // links pay comm.Ethernet's α-β cost (comm.Shaped)
		perLayer bool    // bucketed training, one bucket per tensor
	}{
		// Latency is benign: every data frame parks for its α-β cost, with
		// no poison, no recovery and the healthy trajectory.
		{name: "benign-delay", shaped: true, recs: 0, healthy: true},
		// A scheduled crash shrinks the fleet; the crash's outbound drain
		// pins the resume point at the crash iteration on both substrates.
		{name: "crash", schedule: "crash:rank=3,iter=4",
			recs: 1, lost: [][]int{{3}}, resume: []int{4}},
		// Killing worker 0 exercises rank-0 failover: the lowest surviving
		// ID re-ranks to 0 and owns the rendezvous/trajectory from then on.
		{name: "crash-rank0-failover", schedule: "crash:rank=0,iter=3",
			recs: 1, lost: [][]int{{0}}, resume: []int{3}},
		// One-shot link faults poison the fabric once; the full membership
		// re-forms, the injector state carries over so the fault never
		// re-fires, and the rewound retry reproduces the healthy trajectory.
		// Barrier tokens travel only to and from rank 0: link 1→0 carries,
		// per iteration, two reducer data frames, rank 1's eval message at
		// every second iteration, then the token, so frame 6 is iteration
		// 1's token. Link 1→3 carries no token, one data frame per
		// iteration: frame 1 is iteration 1's.
		{name: "transient-drop", schedule: "drop:rank=1,peer=0,frame=6",
			recs: 1, lost: [][]int{nil}, resume: []int{1}, healthy: true},
		{name: "transient-drop-data", schedule: "drop:rank=1,peer=3,frame=1",
			recs: 1, lost: [][]int{nil}, resume: []int{1}, healthy: true},
		// Link 2→0 carries, per iteration, one reducer data frame, rank 2's
		// eval message at every second iteration, then the barrier token:
		// frame 2 is iteration 1's data frame and frame 3 its eval message.
		// A corrupted payload fails rank 0's decode, and the cause is the
		// schedule entry, not that decode.
		{name: "transient-corrupt", schedule: "corrupt:rank=2,peer=0,frame=3",
			recs: 1, lost: [][]int{nil}, healthy: true},
		{name: "transient-corrupt-data", schedule: "corrupt:rank=2,peer=0,frame=2",
			recs: 1, lost: [][]int{nil}, healthy: true},
		// The eval exchange commits with its iteration: a lost eval message
		// (link 1→0: frame 5 is iteration 1's) re-runs the iteration, eval
		// included, and a crash at an eval iteration's barrier, after the
		// crasher sent its eval message, resumes at that iteration.
		{name: "eval-drop", schedule: "drop:rank=1,peer=0,frame=5",
			recs: 1, lost: [][]int{nil}, resume: []int{1}, healthy: true},
		{name: "eval-crash", schedule: "crash:rank=3,iter=3",
			recs: 1, lost: [][]int{{3}}, resume: []int{3}},
		// A partition re-fires on every generation: the restart budget
		// exhausts and the error names the injected fault, not the cascade.
		{name: "persistent-partition", schedule: "partition:rank=0,peer=2,frame=0",
			failWith: "partition"},
		// Two crashes in different generations: 4 → 3 → 2 workers, each
		// recovery resuming from its own pinned barrier.
		{name: "double-crash", schedule: "crash:rank=1,iter=2;crash:rank=3,iter=5",
			recs: 2, lost: [][]int{{1}, {3}}, resume: []int{2, 7}},
		// Bucketed training recovers the same way: every bucket's residual
		// is snapshotted at its range of the one residual vector. On the
		// per-layer schedule link 2→0 carries several data frames per
		// iteration, and frame 16 falls in iteration 2, so the retry
		// restores every bucket's residual from a snapshot.
		{name: "per-layer-crash", schedule: "crash:rank=3,iter=3", perLayer: true,
			recs: 1, lost: [][]int{{3}}, resume: []int{3}},
		{name: "per-layer-corrupt", schedule: "corrupt:rank=2,peer=0,frame=16", perLayer: true,
			recs: 1, lost: [][]int{nil}, resume: []int{2}, healthy: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sched, err := chaos.Parse(tc.schedule)
			if err != nil {
				t.Fatal(err)
			}
			backends := []struct {
				name string
				b    comm.Backend
			}{
				{"livenet", livenet.NewChaosBackend(sched)},
				{"tcpnet", tcpnet.LocalChaosBackend(20*time.Second, sched)},
			}
			if tc.shaped {
				for i := range backends {
					backends[i].b = comm.Shaped(backends[i].b, comm.Ethernet)
				}
			}
			runs := make([]chaosRun, len(backends))
			for i, bk := range backends {
				cfg := chaosSuiteConfig(bk.b)
				if tc.perLayer {
					cfg = perLayer(cfg)
				}
				runs[i] = runBounded(t, bk.name, cfg)
			}
			healthy := healthy
			if tc.perLayer {
				healthy = healthyPerLayer
			}

			for i, bk := range backends {
				r := runs[i]
				if tc.failWith != "" {
					if r.err == nil {
						t.Fatalf("%s: persistent fault must fail the run", bk.name)
					}
					if !strings.Contains(r.err.Error(), tc.failWith) {
						t.Fatalf("%s: error does not name the injected fault: %v", bk.name, r.err)
					}
					continue
				}
				if r.err != nil {
					t.Fatalf("%s: %v", bk.name, r.err)
				}
				if len(r.recs) != tc.recs {
					t.Fatalf("%s: recoveries: %+v", bk.name, r.recs)
				}
				for j, rec := range r.recs {
					if rec.Gen != j+1 {
						t.Fatalf("%s: recovery %d entered generation %d", bk.name, j, rec.Gen)
					}
					if len(rec.Lost) != len(tc.lost[j]) {
						t.Fatalf("%s: recovery %d lost %v, want %v", bk.name, j, rec.Lost, tc.lost[j])
					}
					for l := range rec.Lost {
						if rec.Lost[l] != tc.lost[j][l] {
							t.Fatalf("%s: recovery %d lost %v, want %v", bk.name, j, rec.Lost, tc.lost[j])
						}
					}
					if tc.resume != nil && rec.ResumeIter != tc.resume[j] {
						t.Fatalf("%s: recovery %d resumed at %d, want %d", bk.name, j, rec.ResumeIter, tc.resume[j])
					}
					// Every root cause names the schedule entry (a crash says
					// "(scheduled)", a link fault "severed by schedule"), never
					// the cascade panics the dead link provoked.
					if !strings.Contains(rec.Cause, "sched") {
						t.Fatalf("%s: cause does not name the injected fault: %q", bk.name, rec.Cause)
					}
				}
				// Every eval point once, none missing or repeated, and those
				// before the first recovery's resume point as the healthy
				// run recorded them.
				if len(r.res.Points) != len(healthy.res.Points) {
					t.Fatalf("%s: points %+v, healthy %+v", bk.name, r.res.Points, healthy.res.Points)
				}
				for j, pt := range r.res.Points {
					h := healthy.res.Points[j]
					if pt.Iter != h.Iter || tc.resume != nil && pt.Iter <= tc.resume[0] && (pt.Loss != h.Loss || pt.Metric != h.Metric) {
						t.Fatalf("%s: point %d is %+v, healthy %+v", bk.name, j, pt, h)
					}
				}
				if tc.healthy {
					comparePoints(t, bk.name+" vs healthy", r.res, healthy.res)
				}
			}

			// The cross-substrate identity: recovered runs walk bit-identical
			// trajectories and identical recovery records, root cause included,
			// on both backends; failed runs name the same root cause.
			lv, tcp := runs[0], runs[1]
			if tc.failWith != "" {
				_, a, _ := strings.Cut(lv.err.Error(), "root cause: ")
				_, b, _ := strings.Cut(tcp.err.Error(), "root cause: ")
				if a == "" || a != b {
					t.Fatalf("root causes diverged across substrates:\nlivenet: %v\ntcpnet:  %v", lv.err, tcp.err)
				}
				return
			}
			comparePoints(t, "tcpnet vs livenet", tcp.res, lv.res)
			if lv.res.FinalLoss != tcp.res.FinalLoss || lv.res.FinalMetric != tcp.res.FinalMetric {
				t.Fatalf("final metrics diverged: livenet %g/%g, tcpnet %g/%g",
					lv.res.FinalMetric, lv.res.FinalLoss, tcp.res.FinalMetric, tcp.res.FinalLoss)
			}
			for j := range lv.recs {
				a, b := lv.recs[j], tcp.recs[j]
				if a.Gen != b.Gen || a.P != b.P || a.ResumeIter != b.ResumeIter || len(a.Lost) != len(b.Lost) ||
					a.Cause != b.Cause {
					t.Fatalf("recovery %d diverged across substrates:\nlivenet: %+v\ntcpnet:  %+v", j, a, b)
				}
			}
		})
	}
}

// comparePoints asserts two trajectories agree bit-exactly on iteration,
// loss and metric (clock readings are wall-time and substrate-specific).
func comparePoints(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%s: point counts differ: %d vs %d", what, len(got.Points), len(want.Points))
	}
	for i := range want.Points {
		g, w := got.Points[i], want.Points[i]
		if g.Iter != w.Iter || g.Loss != w.Loss || g.Metric != w.Metric {
			t.Fatalf("%s: trajectory diverged at point %d: %+v vs %+v", what, i, g, w)
		}
	}
}
