package spardl_test

import (
	"runtime"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/livenet"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
	"spardl/internal/tcpnet"
	"spardl/internal/wire"
)

// The allocation gate: heap allocations per warm synchronization, counted
// for every reducer on every backend and held to a committed count — the
// measurement that replaces predicting allocations from the source. A warm
// sync is meant to allocate nothing per block, so a new allocation in a
// kernel, a codec or a collective moves a row. Run it alone with
//
//	go test -run TestWarmSyncAllocs .
//
// A row fails when its count moves by P or more either way: an allocation
// every rank makes adds at least P. A drop fails too, so the committed
// counts stay tight — lower the row. simnet rows hold persistent endpoints
// and reducers, as a training loop does, and count one fleet-wide sync per
// testing.AllocsPerRun call; the warm-up is part of the row: B-SAG's N_t
// history grows at fixed sync counts. Their counts are the same on every
// run, so they are the exact per-rank check.
//
// livenet and tcpnet-local rows run inside Backend.Run. Rank 0 reads
// runtime.MemStats around allocLiveRuns syncs while every other rank waits
// at a SyncClock barrier. Each tcpnet frame is one write on the sending
// goroutine, so no count depends on how frames happen to batch. Each
// committed count is the median of 30 runs, 10 at each of GOMAXPROCS 1, 2
// and 4, so one more allocation per rank fails it. Over those runs every
// wall-clock row stayed within 2 of its count except livenet's Ok-Topk,
// whose count is instead the midpoint of its 30-run range: 604–612, lower
// at GOMAXPROCS 1 (604–608) than at 4 (608–612). A spread that wide
// leaves 3 to spare either side of the ±P band, so that row catches a
// per-rank allocation only on some runs.
//
// Under -race sync.Pool drops Puts at random, so pooled slabs reallocate
// and no count means anything; the gate skips there.

const (
	allocP, allocN = 8, 1 << 14
	allocK         = allocN / 100
	allocWarm      = 3  // syncs before measuring
	allocRuns      = 10 // syncs measured on simnet
	allocLiveRuns  = 40 // syncs measured on a wall-clock fabric
)

type allocRow struct {
	backend string // simnet, livenet or tcpnet
	name    string
	p       int
	f       sparsecoll.Factory
	segment bool // wrap f in a SegmentReducer over the middle half
	want    int  // committed allocations per sync, fleet-wide
}

func spardlRow(d int, v core.Variant) sparsecoll.Factory {
	return core.NewFactory(core.Options{Teams: d, Variant: v})
}

var allocRows = []allocRow{
	{"simnet", "spardl/d=1", allocP, spardlRow(1, core.Auto), false, 74},
	{"simnet", "spardl/d=2", allocP, spardlRow(2, core.Auto), false, 58},
	{"simnet", "spardl/d=4", allocP, spardlRow(4, core.Auto), false, 42},
	{"simnet", "spardl/d=8", allocP, spardlRow(8, core.Auto), false, 26},
	{"simnet", "bsag/d=2", allocP, spardlRow(2, core.BSAG), false, 67},
	{"simnet", "bsag/d=4", allocP, spardlRow(4, core.BSAG), false, 59},
	{"simnet", "bsag/d=8", allocP, spardlRow(8, core.BSAG), false, 51},
	{"simnet", "spardl/P=32/d=32", 32, spardlRow(32, core.Auto), false, 74},
	{"simnet", "spardl/negotiated", allocP, sparsecoll.Tuned(spardlRow(1, core.Auto), wire.ModeNegotiated), false, 74},
	{"simnet", "segment/spardl", allocP, spardlRow(1, core.Auto), true, 74},
	{"simnet", "gtopk", allocP, sparsecoll.NewGTopk, false, 26},
	{"simnet", "topkdsa", allocP, sparsecoll.NewTopkDSA, false, 58},
	{"simnet", "topka", allocP, sparsecoll.NewTopkA, false, 50},
	{"simnet", "oktopk", allocP, sparsecoll.NewOkTopk, false, 82},
	{"simnet", "dense", allocP, sparsecoll.NewDense, false, 122},

	{"livenet", "spardl/d=1", allocP, spardlRow(1, core.Auto), false, 480},
	{"livenet", "spardl/d=2", allocP, spardlRow(2, core.Auto), false, 264},
	{"livenet", "bsag/d=4", allocP, spardlRow(4, core.BSAG), false, 217},
	{"livenet", "oktopk", allocP, sparsecoll.NewOkTopk, false, 608},
	{"livenet", "dense", allocP, sparsecoll.NewDense, false, 96},
	{"tcpnet", "spardl/d=1", allocP, spardlRow(1, core.Auto), false, 99},
	{"tcpnet", "spardl/d=2", allocP, spardlRow(2, core.Auto), false, 66},
	{"tcpnet", "bsag/d=4", allocP, spardlRow(4, core.BSAG), false, 66},
	{"tcpnet", "oktopk", allocP, sparsecoll.NewOkTopk, false, 166},
	{"tcpnet", "dense", allocP, sparsecoll.NewDense, false, 107},
}

func TestWarmSyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops Puts at random, so allocation counts mean nothing")
	}
	for _, row := range allocRows {
		t.Run(row.backend+"/"+row.name, func(t *testing.T) {
			var got int
			switch row.backend {
			case "simnet":
				got = int(simAllocs(row))
			case "livenet":
				got = int(liveAllocs(livenet.NewBackend(), row))
			default:
				got = int(liveAllocs(tcpnet.LocalBackend(0), row))
			}
			if d := got - row.want; d >= row.p || -d >= row.p {
				t.Errorf("%d allocs per warm sync, committed %d (fails at ±P = %d): %s", got, row.want, row.p, allocAdvice(d))
			}
		})
	}
}

func allocAdvice(d int) string {
	if d > 0 {
		return "a warm sync allocates more than it did"
	}
	return "it allocates less now — lower the committed count"
}

// allocReducer builds rank's reducer and its gradient and output vectors;
// a segment row reduces the middle half of a length-allocN output.
func allocReducer(row allocRow, rank int) (r sparsecoll.Reducer, grad, out []float32) {
	n, k := allocN, allocK
	out = make([]float32, n)
	if row.segment {
		lo, hi := n/4, 3*n/4
		r = sparsecoll.NewSegment(row.f, row.p, rank, lo, hi, k/2)
		n = hi - lo
	} else {
		r = row.f(row.p, rank, n, k)
	}
	grad = make([]float32, n)
	for i := range grad {
		grad[i] = float32((i*7+rank)%101) / 100
	}
	return r, grad, out
}

// simAllocs is one simnet row: persistent endpoints and reducers, one
// fleet-wide sync per AllocsPerRun call.
func simAllocs(row allocRow) float64 {
	fabric := simnet.New(row.p, comm.Ethernet)
	eps := make([]comm.Node, row.p)
	reducers := make([]sparsecoll.Reducer, row.p)
	grads, outs := make([][]float32, row.p), make([][]float32, row.p)
	for w := range reducers {
		eps[w] = fabric.Endpoint(w)
		reducers[w], grads[w], outs[w] = allocReducer(row, w)
	}
	sync := func() {
		var root comm.Cause
		comm.RunWorkers(row.p, nil, &root,
			func(rank int) comm.Node { return eps[rank] },
			func(rank int, ep comm.Endpoint) { reducers[rank].ReduceInto(ep, grads[rank], outs[rank]) })
		if cause := root.String(); cause != "" {
			panic(cause)
		}
	}
	for i := 0; i < allocWarm; i++ {
		sync()
	}
	return testing.AllocsPerRun(allocRuns, sync)
}

// liveAllocs is one wall-clock row: rank 0 reads the process's Mallocs
// between two barriers, before and after allocLiveRuns syncs, so no rank
// is reducing while it reads.
func liveAllocs(b comm.Backend, row allocRow) float64 {
	var before, after runtime.MemStats
	b.Run(row.p, func(rank int, ep comm.Endpoint) {
		r, grad, out := allocReducer(row, rank)
		for i := 0; i < allocWarm; i++ {
			r.ReduceInto(ep, grad, out)
		}
		ep.SyncClock()
		if rank == 0 {
			runtime.ReadMemStats(&before)
		}
		ep.SyncClock()
		for i := 0; i < allocLiveRuns; i++ {
			r.ReduceInto(ep, grad, out)
		}
		ep.SyncClock()
		if rank == 0 {
			runtime.ReadMemStats(&after)
		}
		ep.SyncClock()
	})
	return float64(after.Mallocs-before.Mallocs) / allocLiveRuns
}
