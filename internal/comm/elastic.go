package comm

import (
	"fmt"
	"sort"
	"time"

	"spardl/internal/chaos"
)

// Elastic membership: the contract a backend implements when it can
// survive worker loss by re-forming the fabric with the survivors. A
// normal Backend.Run is one fixed-membership execution; RunElastic is a
// sequence of them — generations — where each fabric poisoning is
// classified (scheduled crash vs. genuine bug), departed workers are
// removed, and the surviving worker bodies re-enter with a shrunk
// membership. The worker bodies themselves carry their state across
// generations (the trainer snapshots model/optimizer/residual at
// iteration boundaries); the backend only guarantees that the same
// surviving set re-rendezvouses with the same rank mapping on every
// substrate, which is what makes post-shrink trajectories comparable
// bit-for-bit across backends.

// Membership is one worker's coordinates within one fabric generation.
type Membership struct {
	// Gen counts fabric generations: 0 is the initial rendezvous, each
	// elastic re-rendezvous increments it.
	Gen int
	// P is the generation's worker count.
	P int
	// Rank is this worker's rank within the generation, in [0, P).
	// Survivors are re-ranked by ascending worker ID, so the lowest
	// surviving ID becomes rank 0 (rank-0 failover).
	Rank int
	// ID is the worker's stable identity: its rank in generation 0. State
	// carried across re-rendezvous is keyed by ID, not Rank.
	ID int
	// Lost holds the IDs of every worker departed since generation 0,
	// ascending. len(Lost) + P equals the initial worker count.
	Lost []int
}

// ElasticWorker is one worker's body for one generation. It runs the
// workload from wherever its carried state says to resume; a poisoned
// fabric surfaces as a panic out of the body exactly as under Backend.Run,
// and the elastic runner decides whether a next generation follows.
type ElasticWorker func(m Membership, ep Endpoint)

// ElasticOptions bounds an elastic run.
type ElasticOptions struct {
	// MinP is the smallest membership worth continuing with; a shrink
	// below it fails fast instead of re-forming. 0 means 1.
	MinP int
	// MaxRestarts bounds the number of re-rendezvous attempts (shrinking
	// or same-size) before the run fails fast. 0 means 1.
	MaxRestarts int
}

// Recovery records one survived membership change.
type Recovery struct {
	// Gen is the generation entered by this recovery (≥ 1).
	Gen int
	// P is the new generation's worker count.
	P int
	// Lost holds the worker IDs that departed entering this generation.
	Lost []int
	// Cause is the poison root cause that triggered the recovery.
	Cause string
	// RejoinSeconds is the wall-clock re-rendezvous latency: fault
	// observed → new fabric established (the worker body has not yet run
	// its first post-recovery round; the trainer adds that half).
	RejoinSeconds float64
}

// ElasticBackend is implemented by backends that survive worker loss.
type ElasticBackend interface {
	Backend
	// RunElastic executes worker across fabric generations, starting at p
	// workers. It returns the final generation's report, the recoveries
	// survived (empty for a healthy run), and an error when the run failed
	// fast — the error names the root cause. Exactly one of report/err is
	// meaningful.
	RunElastic(p int, opts ElasticOptions, worker ElasticWorker) (*Report, []Recovery, error)
}

// Fleet is an elastic run's membership source: it forms a fabric for each
// generation's members and, after a generation poisons, says who carries
// on. The two implementations differ in who can see the fleet: InProcess
// hosts every worker and classifies their recovered panics; a forked
// worker process (package tcpnet) sees only itself, so the survivors find
// each other again by re-checking-in.
type Fleet interface {
	// Generation runs worker on a fresh fabric over members — stable IDs,
	// ascending, rank = index — and waits for it. It returns the report,
	// each rank's recovered panic value (nil for clean returns and for
	// ranks other processes host) and the generation's root cause, ""
	// when every worker completed.
	Generation(gen int, members, lost []int, worker ElasticWorker) (rep *Report, panics []any, cause string)
	// Regroup names the members of generation gen+1, ascending, after
	// generation gen poisoned.
	Regroup(gen int, members []int, panics []any) ([]int, error)
}

// Run is Backend.Run over a Fleet: one generation at full membership, and
// a poisoned fabric re-panics with its root cause.
func Run(f Fleet, p int, worker func(rank int, ep Endpoint)) *Report {
	rep, _, cause := f.Generation(0, identity(p), nil, func(m Membership, ep Endpoint) { worker(m.Rank, ep) })
	if cause != "" {
		panic(cause)
	}
	return rep
}

// RunElastic is the one elastic generation loop, ElasticBackend.RunElastic
// over a Fleet. Generation 0 runs all p workers; whenever a generation
// poisons, the fleet regroups — scheduled crashes depart, everything else
// (a severed link, a corrupted frame, a genuine bug) leaves the membership
// intact — and the survivors, re-ranked by ascending ID, run the next one,
// up to opts.MaxRestarts times. A transient fault therefore retries at
// full strength, a persistent one exhausts its restart budget and fails
// fast with the root cause named, and a crash shrinks the fleet. name
// prefixes the errors.
func RunElastic(name string, f Fleet, p int, opts ElasticOptions, worker ElasticWorker) (*Report, []Recovery, error) {
	minP, maxRestarts := max(opts.MinP, 1), max(opts.MaxRestarts, 1)
	members := identity(p)
	var (
		recoveries []Recovery
		lost       []int
	)
	for gen := 0; ; gen++ {
		rep, panics, cause := f.Generation(gen, members, lost, worker)
		if cause == "" {
			return rep, recoveries, nil
		}
		t0 := time.Now()
		if gen >= maxRestarts {
			return nil, recoveries, fmt.Errorf("%s: giving up after %d re-rendezvous; root cause: %s", name, gen, cause)
		}
		survivors, err := f.Regroup(gen, members, panics)
		if err != nil {
			return nil, recoveries, fmt.Errorf("%s: %w; root cause: %s", name, err, cause)
		}
		if len(survivors) < minP {
			return nil, recoveries, fmt.Errorf("%s: %d survivors is below MinP=%d; root cause: %s", name, len(survivors), minP, cause)
		}
		departed := without(members, survivors)
		members = survivors
		lost = append(lost, departed...)
		sort.Ints(lost)
		recoveries = append(recoveries, Recovery{
			Gen:           gen + 1,
			P:             len(members),
			Lost:          departed,
			Cause:         cause,
			RejoinSeconds: time.Since(t0).Seconds(),
		})
	}
}

// identity returns the generation-0 membership 0..p-1.
func identity(p int) []int {
	ids := make([]int, p)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// without returns the elements of the ascending list all that are missing
// from the ascending list keep.
func without(all, keep []int) []int {
	var out []int
	for _, id := range all {
		if i := sort.SearchInts(keep, id); i == len(keep) || keep[i] != id {
			out = append(out, id)
		}
	}
	return out
}

// InProcess returns the Fleet whose workers are all goroutines of this
// process. form builds one generation's fabric — root is that generation's
// root-cause record, to be shared by everything on the fabric — and
// returns the function RunWorkers opens each rank's endpoint with.
func InProcess(form func(gen int, members []int, root *Cause) func(rank int) Node) Fleet {
	return inProcess(form)
}

type inProcess func(gen int, members []int, root *Cause) func(rank int) Node

func (form inProcess) Generation(gen int, members, lost []int, worker ElasticWorker) (*Report, []any, string) {
	root := new(Cause)
	p := len(members)
	rep, panics := RunWorkers(p, nil, root, form(gen, members, root), func(rank int, ep Endpoint) {
		worker(Membership{Gen: gen, P: p, Rank: rank, ID: members[rank], Lost: append([]int(nil), lost...)}, ep)
	})
	return rep, panics, root.String()
}

// Regroup keeps everyone whose worker did not die of a scheduled crash.
// The test is on the panic value's type, not its text: the poisoned-fabric
// panics of the crasher's peers quote the crash as their cause.
func (inProcess) Regroup(gen int, members []int, panics []any) ([]int, error) {
	survivors := make([]int, 0, len(members))
	for rank, id := range members {
		if _, crashed := panics[rank].(chaos.Crashed); !crashed {
			survivors = append(survivors, id)
		}
	}
	return survivors, nil
}
