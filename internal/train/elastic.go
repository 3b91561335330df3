package train

import (
	"fmt"

	"spardl/internal/comm"
	"spardl/internal/nn"
	"spardl/internal/pipeline"
)

// ElasticConfig bounds an elastic training run (Config.Elastic); it is the
// backend's own comm.ElasticOptions, passed through unchanged.
type ElasticConfig = comm.ElasticOptions

// RecoveryStat is one survived membership change, as seen by the trainer:
// the backend's re-rendezvous record plus the training-level half of the
// recovery latency.
type RecoveryStat struct {
	comm.Recovery
	// ResumeIter is the iteration the survivors agreed to resume from —
	// the last globally completed barrier.
	ResumeIter int
	// FirstRoundSeconds is rank 0's wall-clock time from re-entering the
	// worker body to completing the first post-recovery round; poison →
	// first post-re-rendezvous round ≈ RejoinSeconds + FirstRoundSeconds.
	FirstRoundSeconds float64
}

// snap is one boundary snapshot: the worker's full carried state after
// completing iteration Iter. A ring of three covers every reachable resume
// point — survivors can disagree on the fault barrier by at most one
// iteration, and the agreed minimum steps back one more.
type snap struct {
	Iter     int
	Params   []float32
	Velocity []float32 // nil when the optimizer carries no momentum yet
	Residual []float32 // nil when the method carries no residual
}

// RunElastic executes the training session with elastic membership: when
// the fabric poisons, the backend classifies the fault (scheduled crash →
// shrink, transient → retry), survivors re-rendezvous, agree on the resume
// iteration (the minimum of their passed-barrier counts — provably within
// one of each other), restore the matching snapshot, rebuild their reducers
// for the new membership (team counts re-fit, partitions re-derived from
// the new P), and continue. The trajectory it returns is deterministic for
// a given seed, schedule and backend substrate — the chaos suite pins that
// livenet and tcpnet produce bit-identical post-shrink points. Times run on
// one session clock across generations, and the per-iteration averages
// cover every iteration, each as the generation that ran it last paid it.
//
// The departed worker's unsent residual mass leaves with it; everything it
// contributed to completed iterations is already folded into the shared
// model that survivors carry forward.
func RunElastic(cfg Config) (*Result, []RecoveryStat, error) {
	if cfg.Backend == nil {
		return nil, nil, fmt.Errorf("train: elastic membership requires a live backend")
	}
	eb, ok := cfg.Backend.(comm.ElasticBackend)
	if !ok {
		return nil, nil, fmt.Errorf("train: backend %s does not support elastic membership", cfg.Backend.Name())
	}
	s, err := newSession(cfg)
	if err != nil {
		return nil, nil, err
	}
	s.elastic = true
	var opts ElasticConfig
	if cfg.Elastic != nil {
		opts = *cfg.Elastic
	}
	replicas := make([]*replica, cfg.P) // keyed by stable ID; each touched by its own worker only
	_, recoveries, err := eb.RunElastic(cfg.P, opts, func(m comm.Membership, ep comm.Endpoint) {
		if replicas[m.ID] == nil {
			replicas[m.ID] = s.newReplica()
		}
		s.work(m, ep, replicas[m.ID])
	})
	if err != nil {
		return nil, nil, err
	}
	stats := make([]RecoveryStat, len(recoveries))
	for i, r := range recoveries {
		stats[i] = RecoveryStat{Recovery: r, ResumeIter: s.resumeAt[r.Gen], FirstRoundSeconds: s.firstRound[r.Gen]}
	}
	return s.result(), stats, nil
}

// snapshot stores the boundary state after completing iteration it. Each
// bucket's residual goes to its [Lo, Hi) of the one n-vector.
func (st *replica) snapshot(it int, sched *pipeline.Schedule, n int) {
	s := &st.snaps[it%3]
	s.Iter = it
	if s.Params == nil {
		s.Params = make([]float32, n)
	}
	nn.FlattenParams(st.model.Params(), s.Params)
	if v := st.opt.Velocity(); v != nil {
		if s.Velocity == nil {
			s.Velocity = make([]float32, len(v))
		}
		copy(s.Velocity, v)
	} else {
		s.Velocity = nil
	}
	if sched.Reducers[0].Residual() == nil { // every bucket runs the same method
		s.Residual = nil
	} else {
		if s.Residual == nil {
			s.Residual = make([]float32, n)
		}
		for _, r := range sched.Reducers {
			copy(s.Residual[r.Lo:r.Hi], r.Residual())
		}
	}
	st.haveSnap[it%3] = true
}

// restore rewinds the carried state to "after completing iteration
// resume−1": either a ring snapshot or, for resume 0, the deterministic
// fresh start, which renews the model.
func (st *replica) restore(c *Case, seed int64, resume int, sched *pipeline.Schedule) {
	if resume == 0 {
		st.reset(c, seed)
		return
	}
	i := (resume - 1) % 3
	s := &st.snaps[i]
	if !st.haveSnap[i] || s.Iter != resume-1 {
		panic(fmt.Sprintf("train: no snapshot for resume iteration %d (ring holds %d)", resume, s.Iter))
	}
	nn.LoadParams(st.model.Params(), s.Params)
	st.opt.RestoreVelocity(s.Velocity)
	if s.Residual != nil {
		for _, r := range sched.Reducers {
			r.RestoreResidual(s.Residual[r.Lo:r.Hi])
		}
	}
}

// agreeMinIter is the post-re-rendezvous agreement round: every survivor
// broadcasts its passed-barrier count and adopts the minimum.
func agreeMinIter(ep comm.Endpoint, p, rank, mine int) int {
	min := mine
	for peer := 0; peer < p; peer++ {
		if peer != rank {
			ep.Send(peer, float64(mine), 8)
		}
	}
	for peer := 0; peer < p; peer++ {
		if peer != rank {
			v, _ := ep.Recv(peer)
			if b := int(v.(float64)); b < min {
				min = b
			}
		}
	}
	return min
}
