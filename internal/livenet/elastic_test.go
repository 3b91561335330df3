package livenet

import (
	"strings"
	"testing"

	"spardl/internal/chaos"
	"spardl/internal/comm"
)

// elasticWorkload is a miniature of the elastic trainer's carry protocol:
// each worker accumulates the all-reduced sum of (ID+1) over `iters`
// synchronous rounds, committing state only after the barrier passes — so
// a generation that dies mid-round resumes from the last globally
// completed iteration, exactly like the model/optimizer snapshots.
type elasticWorkload struct {
	iters  int
	states map[int]*struct{ iter, acc int }
}

func newElasticWorkload(p, iters int) *elasticWorkload {
	w := &elasticWorkload{iters: iters, states: map[int]*struct{ iter, acc int }{}}
	for id := 0; id < p; id++ {
		w.states[id] = &struct{ iter, acc int }{}
	}
	return w
}

func (w *elasticWorkload) run(m comm.Membership, ep comm.Endpoint) {
	st := w.states[m.ID]
	for it := st.iter; it < w.iters; it++ {
		sum := m.ID + 1
		for peer := 0; peer < m.P; peer++ {
			if peer != m.Rank {
				ep.Send(peer, float64(m.ID+1), 8)
			}
		}
		for peer := 0; peer < m.P; peer++ {
			if peer != m.Rank {
				v, _ := ep.Recv(peer)
				sum += int(v.(float64))
			}
		}
		next := st.acc + sum
		ep.SyncClock() // may panic; st is only committed past the barrier
		st.iter, st.acc = it+1, next
	}
}

func TestRunElasticCrashShrinksAndResumes(t *testing.T) {
	sched, err := chaos.Parse("crash:rank=2,iter=2")
	if err != nil {
		t.Fatal(err)
	}
	w := newElasticWorkload(3, 5)
	rep, recs, runErr := RunElastic(3, sched, comm.ElasticOptions{MinP: 2}, w.run)
	if runErr != nil {
		t.Fatalf("elastic run failed: %v", runErr)
	}
	if rep == nil || len(rep.PerWorker) != 2 {
		t.Fatalf("final report not for the shrunk membership: %+v", rep)
	}
	if len(recs) != 1 {
		t.Fatalf("recoveries: %+v", recs)
	}
	r := recs[0]
	if r.Gen != 1 || r.P != 2 || len(r.Lost) != 1 || r.Lost[0] != 2 {
		t.Fatalf("recovery record: %+v", r)
	}
	if !strings.Contains(r.Cause, "(scheduled)") {
		t.Fatalf("recovery cause does not name the scheduled crash: %q", r.Cause)
	}
	// Iterations 0,1 ran at P=3 (sum 6); the crash fires at the barrier
	// ending iteration 2, so no one passes it and iterations 2,3,4 all
	// (re)run at P=2 (sum 3). Survivors must agree exactly.
	want := 2*6 + 3*3
	for _, id := range []int{0, 1} {
		if got := w.states[id].acc; got != want {
			t.Errorf("worker %d acc = %d, want %d", id, got, want)
		}
		if w.states[id].iter != 5 {
			t.Errorf("worker %d stopped at iter %d", id, w.states[id].iter)
		}
	}
	if w.states[2].iter != 2 {
		t.Errorf("crashed worker committed %d iterations, want 2", w.states[2].iter)
	}
}

func TestRunElasticTransientFaultRetriesFullMembership(t *testing.T) {
	// Frame ordinals on link 0→1: each iteration emits one data frame and
	// one barrier token, so frame 4 is iteration 2's payload.
	sched, err := chaos.Parse("drop:rank=0,peer=1,frame=4")
	if err != nil {
		t.Fatal(err)
	}
	w := newElasticWorkload(3, 4)
	_, recs, runErr := RunElastic(3, sched, comm.ElasticOptions{MinP: 2, MaxRestarts: 2}, w.run)
	if runErr != nil {
		t.Fatalf("elastic run failed: %v", runErr)
	}
	if len(recs) != 1 || recs[0].P != 3 || len(recs[0].Lost) != 0 {
		t.Fatalf("transient fault must retry at full membership: %+v", recs)
	}
	if !strings.Contains(recs[0].Cause, "chaos:") {
		t.Fatalf("cause does not name the schedule entry: %q", recs[0].Cause)
	}
	// All four iterations ultimately complete at P=3; the injector's frame
	// counter carried across the restart, so the one-shot drop never
	// re-fired.
	for id := 0; id < 3; id++ {
		if got := w.states[id].acc; got != 4*6 {
			t.Errorf("worker %d acc = %d, want %d", id, got, 4*6)
		}
	}
}

func TestRunElasticPersistentFaultFailsFastWithCause(t *testing.T) {
	sched, err := chaos.Parse("partition:rank=1,peer=0,frame=2")
	if err != nil {
		t.Fatal(err)
	}
	w := newElasticWorkload(2, 4)
	_, _, runErr := RunElastic(2, sched, comm.ElasticOptions{MaxRestarts: 2}, w.run)
	if runErr == nil {
		t.Fatal("persistent partition must exhaust restarts and fail")
	}
	if !strings.Contains(runErr.Error(), "partition") {
		t.Fatalf("error does not name the injected root cause: %v", runErr)
	}
}

// Latency is benign: on a shaped link every Recv parks for α, and the run
// completes with no recovery and the same sums.
func TestRunElasticDelayIsBenign(t *testing.T) {
	net := comm.Profile{Name: "slow", Alpha: 2e-3}
	w := newElasticWorkload(2, 3)
	rep, recs, runErr := comm.Shaped(NewBackend(), net).(comm.ElasticBackend).RunElastic(2, comm.ElasticOptions{}, w.run)
	if runErr != nil || len(recs) != 0 {
		t.Fatalf("latency must be benign: err=%v recs=%+v", runErr, recs)
	}
	for id := 0; id < 2; id++ {
		if got := w.states[id].acc; got != 3*3 {
			t.Errorf("worker %d acc = %d, want %d", id, got, 3*3)
		}
		// One frame per iteration, each parked for α.
		if got := rep.PerWorker[id].CommTime; got < 3*net.Alpha {
			t.Errorf("worker %d CommTime %.4fs, below three parks of %gs", id, got, net.Alpha)
		}
	}
}

func TestRunElasticBelowMinPFails(t *testing.T) {
	sched, err := chaos.Parse("crash:rank=0,iter=1;crash:rank=1,iter=1")
	if err != nil {
		t.Fatal(err)
	}
	w := newElasticWorkload(3, 3)
	_, _, runErr := RunElastic(3, sched, comm.ElasticOptions{MinP: 2, MaxRestarts: 3}, w.run)
	if runErr == nil {
		t.Fatal("shrinking below MinP must fail fast")
	}
	if !strings.Contains(runErr.Error(), "MinP") {
		t.Fatalf("error does not explain the MinP violation: %v", runErr)
	}
}
