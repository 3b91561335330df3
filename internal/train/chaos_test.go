package train

import (
	"strings"
	"testing"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/livenet"
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
	cfg.Factory = core.NewElasticFactory(core.Options{Teams: 2})
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

func TestChaosSuiteAcrossBackends(t *testing.T) {
	healthy := runBounded(t, "healthy", chaosSuiteConfig(livenet.NewBackend()))
	if healthy.err != nil {
		t.Fatal(healthy.err)
	}

	cases := []struct {
		name     string
		schedule string
		recs     int     // expected recovery count on success
		failWith string  // non-empty: the run must fail fast naming this
		lost     [][]int // per-recovery departed IDs (nil slice = none)
		resume   []int   // per-recovery expected ResumeIter
		healthy  bool    // final trajectory must equal the healthy run's
	}{
		// A delayed frame is pure latency: no poison, no recovery, and the
		// trajectory is untouched.
		{name: "benign-delay", schedule: "delay:rank=1,peer=0,frame=2,dur=2ms",
			recs: 0, healthy: true},
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
		{name: "transient-drop", schedule: "drop:rank=1,peer=2,frame=3",
			recs: 1, lost: [][]int{nil}, healthy: true},
		{name: "transient-corrupt", schedule: "corrupt:rank=2,peer=0,frame=3",
			recs: 1, lost: [][]int{nil}, healthy: true},
		// A partition re-fires on every generation: the restart budget
		// exhausts and the error names the injected fault, not the cascade.
		{name: "persistent-partition", schedule: "partition:rank=0,peer=2,frame=0",
			failWith: "partition"},
		// Two crashes in different generations: 4 → 3 → 2 workers, each
		// recovery resuming from its own pinned barrier.
		{name: "double-crash", schedule: "crash:rank=1,iter=2;crash:rank=3,iter=5",
			recs: 2, lost: [][]int{{1}, {3}}, resume: []int{2, 7}},
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
			runs := make([]chaosRun, len(backends))
			for i, bk := range backends {
				runs[i] = runBounded(t, bk.name, chaosSuiteConfig(bk.b))
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
				if len(r.res.Points) == 0 || r.res.Points[len(r.res.Points)-1].Iter != 8 {
					t.Fatalf("%s: run did not complete training: %+v", bk.name, r.res.Points)
				}
				if tc.healthy {
					comparePoints(t, bk.name+" vs healthy", r.res, healthy.res)
				}
			}

			// The cross-substrate identity: recovered runs walk bit-identical
			// trajectories and identical recovery records, root cause included,
			// on both backends; failed runs name the same root cause. (Frame 3
			// of transient-corrupt's link is a barrier token, so its corruption
			// severs the link on both substrates too.)
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
