// Package chaos defines a deterministic, seed-reproducible fault schedule
// for the live communication backends. A Schedule names exactly which
// faults fire where — a frame dropped on one directed link, a payload
// corrupted in flight, a worker crashing at an iteration boundary, an
// asymmetric partition opening between two peers, or extra latency on a
// link — and both livenet (at its FIFO queue boundary) and tcpnet (as a
// net.Conn wrapper around the mesh connections) consult the same Injector
// interface, so one schedule replays identically on either substrate.
//
// Determinism is structural, not sampled: every fault is keyed by the
// per-link frame ordinal or the per-worker iteration ordinal, both of
// which are identical across backends because all backends execute the
// identical communication schedule. The Seed exists for schedule
// *generation* (tests derive fault placements from it); replay itself
// involves no randomness.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the fault types a schedule can carry.
type Kind int

const (
	// Delay adds latency before one frame on a directed link. Benign: the
	// run must still complete with bit-identical results.
	Delay Kind = iota
	// Drop discards one frame on a directed link and severs the link — on
	// a stream transport a missing frame tears the stream anyway, so both
	// backends treat a drop as link death with the fault as root cause.
	Drop
	// Corrupt flips bits in one frame's payload before delivery; the
	// receiver's decode path must fail cleanly and poison the fabric.
	Corrupt
	// Crash kills the worker at an iteration boundary (the SyncClock
	// barrier): goroutine workers panic with a Crashed value, process
	// workers exit hard. Survivors shrink and continue when elastic.
	Crash
	// Partition severs a directed link from a frame ordinal onward —
	// asymmetric by construction (the reverse direction stays healthy
	// unless separately scheduled).
	Partition
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Crash:
		return "crash"
	case Partition:
		return "partition"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one scheduled fault. Rank is the worker the fault applies to
// (the sender, for link faults). Peer and Frame select the directed link
// and the per-link outbound frame ordinal (0-based, counting every frame
// the endpoint emits on that link, barrier tokens included); Iter selects
// the crash boundary for Crash faults. Ranks and peers are generation-0
// worker IDs: a schedule keeps naming the same physical workers across
// elastic re-rendezvous, so replays stay aligned after a shrink.
type Fault struct {
	Kind  Kind
	Rank  int
	Peer  int           // link faults; ignored for Crash
	Frame int           // link faults: the frame ordinal hit (Partition: first severed)
	Iter  int           // Crash: the iteration boundary to die at
	Dur   time.Duration // Delay only
}

// String renders the fault in the compact form Parse reads.
func (f Fault) String() string {
	switch f.Kind {
	case Crash:
		return fmt.Sprintf("crash:rank=%d,iter=%d", f.Rank, f.Iter)
	case Delay:
		return fmt.Sprintf("delay:rank=%d,peer=%d,frame=%d,dur=%s", f.Rank, f.Peer, f.Frame, f.Dur)
	case Partition:
		return fmt.Sprintf("partition:rank=%d,peer=%d,frame=%d", f.Rank, f.Peer, f.Frame)
	default:
		return fmt.Sprintf("%s:rank=%d,peer=%d,frame=%d", f.Kind, f.Rank, f.Peer, f.Frame)
	}
}

// Severed is the root cause a link fault records when it severs the link
// from worker Rank to worker Peer — one text on every substrate.
func (f Fault) Severed() string {
	return fmt.Sprintf("worker %d: chaos: link to worker %d severed by schedule (%s)", f.Rank, f.Peer, f)
}

// Schedule is a reproducible set of faults. The zero value (and nil) is a
// healthy cluster.
type Schedule struct {
	Seed   int64
	Faults []Fault
}

// String renders the schedule in the form Parse reads:
// "seed=S;fault;fault;...".
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	parts := make([]string, 0, len(s.Faults)+1)
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	for _, f := range s.Faults {
		parts = append(parts, f.String())
	}
	return strings.Join(parts, ";")
}

// Parse reads the compact schedule format String writes:
//
//	seed=7;crash:rank=2,iter=3;drop:rank=0,peer=1,frame=4;delay:rank=1,peer=0,frame=0,dur=5ms
//
// An empty string parses to nil (no chaos).
func Parse(s string) (*Schedule, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	sched := &Schedule{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(part, "seed="); ok {
			seed, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q: %w", rest, err)
			}
			sched.Seed = seed
			continue
		}
		kindStr, args, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("chaos: fault %q missing ':' after kind", part)
		}
		var f Fault
		switch kindStr {
		case "delay":
			f.Kind = Delay
		case "drop":
			f.Kind = Drop
		case "corrupt":
			f.Kind = Corrupt
		case "crash":
			f.Kind = Crash
		case "partition":
			f.Kind = Partition
		default:
			return nil, fmt.Errorf("chaos: unknown fault kind %q", kindStr)
		}
		f.Peer = -1
		for _, kv := range strings.Split(args, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("chaos: fault field %q is not key=value", kv)
			}
			switch key {
			case "rank", "peer", "frame", "iter":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("chaos: bad %s %q: %w", key, val, err)
				}
				switch key {
				case "rank":
					f.Rank = n
				case "peer":
					f.Peer = n
				case "frame":
					f.Frame = n
				case "iter":
					f.Iter = n
				}
			case "dur":
				d, err := time.ParseDuration(val)
				if err != nil {
					return nil, fmt.Errorf("chaos: bad dur %q: %w", val, err)
				}
				f.Dur = d
			default:
				return nil, fmt.Errorf("chaos: unknown fault field %q", key)
			}
		}
		if f.Kind != Crash && f.Peer < 0 {
			return nil, fmt.Errorf("chaos: %s fault needs peer=", f.Kind)
		}
		sched.Faults = append(sched.Faults, f)
	}
	return sched, nil
}

// CrashIters returns the worker IDs scheduled to crash, with the earliest
// crash iteration per worker — what an elastic harness uses to predict the
// surviving membership for a given schedule.
func (s *Schedule) CrashIters() map[int]int {
	if s == nil {
		return nil
	}
	out := map[int]int{}
	for _, f := range s.Faults {
		if f.Kind != Crash {
			continue
		}
		if it, ok := out[f.Rank]; !ok || f.Iter < it {
			out[f.Rank] = f.Iter
		}
	}
	return out
}

// Action is the injector's verdict for one outbound frame.
type Action struct {
	Delay   time.Duration // sleep before handling the frame
	Drop    bool          // discard the frame and sever the link
	Corrupt bool          // flip bits in the payload before delivery
	Fault   *Fault        // the schedule entry behind a Drop/Corrupt/Partition verdict
}

// Injector is the per-worker view of a schedule both live backends accept:
// livenet consults it at the queue boundary on every push, tcpnet inside
// the net.Conn wrapper on every outbound frame. Implementations must be
// safe for the backend's concurrency (tcpnet consults per-peer writer
// goroutines; per-link state is independent, so a per-link mutex suffices).
type Injector interface {
	// Outbound is consulted once per outbound frame to peer, in emission
	// order; the injector keeps the per-link ordinal itself.
	Outbound(peer int) Action
	// CrashIter returns the iteration boundary this worker dies at, or -1.
	CrashIter() int
}

// Worker returns rank's injector view of the schedule, or nil when the
// schedule holds no fault for the rank (nil Injector means healthy — both
// backends skip the hook entirely). Ranks are generation-0 worker IDs.
func (s *Schedule) Worker(id int) Injector {
	if s == nil {
		return nil
	}
	w := &worker{id: id, crashIter: -1, links: map[int]*link{}}
	hit := false
	for _, f := range s.Faults {
		if f.Rank != id {
			continue
		}
		hit = true
		if f.Kind == Crash {
			if w.crashIter < 0 || f.Iter < w.crashIter {
				w.crashIter = f.Iter
			}
			continue
		}
		l := w.links[f.Peer]
		if l == nil {
			l = &link{partitionAt: -1}
			w.links[f.Peer] = l
		}
		f := f
		l.faults = append(l.faults, &f)
		if f.Kind == Partition && (l.partitionAt < 0 || f.Frame < l.partitionAt) {
			l.partitionAt = f.Frame
			l.partition = &f
		}
	}
	if !hit {
		return nil
	}
	for _, l := range w.links {
		sort.SliceStable(l.faults, func(i, j int) bool { return l.faults[i].Frame < l.faults[j].Frame })
	}
	return w
}

// Workers returns the injectors of workers 0..p-1 (see Worker), indexed by
// generation-0 ID: what an elastic backend carries across generations so
// one-shot faults never re-fire.
func (s *Schedule) Workers(p int) []Injector {
	injs := make([]Injector, p)
	for id := range injs {
		injs[id] = s.Worker(id)
	}
	return injs
}

// worker implements Injector for one rank.
type worker struct {
	id        int
	crashIter int
	links     map[int]*link
}

// link is the mutable per-directed-link replay state. Frame ordinals are
// advanced on every Outbound call, so the schedule stays aligned with the
// transport's own frame order; the counter survives elastic re-rendezvous
// (the injector is kept across generations), so a one-shot fault never
// re-fires after recovery.
type link struct {
	faults      []*Fault
	partition   *Fault
	partitionAt int
	frame       int // next outbound ordinal
}

// Outbound implements Injector.
func (w *worker) Outbound(peer int) Action {
	l := w.links[peer]
	if l == nil {
		return Action{}
	}
	n := l.frame
	l.frame++
	var act Action
	if l.partitionAt >= 0 && n >= l.partitionAt {
		act.Drop = true
		act.Fault = l.partition
		return act
	}
	for _, f := range l.faults {
		if f.Frame != n {
			continue
		}
		switch f.Kind {
		case Delay:
			act.Delay += f.Dur
		case Drop:
			act.Drop = true
			act.Fault = f
		case Corrupt:
			act.Corrupt = true
			if act.Fault == nil {
				act.Fault = f
			}
		}
	}
	return act
}

// CrashIter implements Injector.
func (w *worker) CrashIter() int { return w.crashIter }

// CorruptBytes deterministically flips up to two bytes of buf — the shared
// mutation both backends apply on a Corrupt verdict, keyed only by the
// payload length so replays match. Byte 0 is XORed with 0xFF and byte
// len/2 with 0xA5, which reliably breaks either the payload tag or the
// codec body; a length-1 buffer receives both masks on its single byte
// (net 0x5A). An empty buffer is left untouched.
func CorruptBytes(buf []byte) {
	if len(buf) == 0 {
		return
	}
	buf[0] ^= 0xFF
	buf[len(buf)/2] ^= 0xA5
}

// Crashed is the panic value a goroutine worker dies with on a scheduled
// crash; elastic runners classify it to tell a scheduled departure from a
// genuine bug.
type Crashed struct {
	ID   int // generation-0 worker ID
	Iter int
}

// Error makes the value readable when it escapes as a test failure.
func (c Crashed) Error() string {
	return fmt.Sprintf("chaos: worker %d crashed at iteration %d (scheduled)", c.ID, c.Iter)
}

// IsCrashed reports whether a recovered panic value is a scheduled chaos
// crash, unwrapping the cause strings the backends build around it.
func IsCrashed(r any) bool {
	switch v := r.(type) {
	case Crashed:
		return true
	case error:
		return strings.Contains(v.Error(), "chaos: worker") && strings.Contains(v.Error(), "(scheduled)")
	case string:
		return strings.Contains(v, "chaos: worker") && strings.Contains(v, "(scheduled)")
	default:
		return strings.Contains(fmt.Sprint(r), "(scheduled)")
	}
}
