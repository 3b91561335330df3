package spardl_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"spardl"
	"spardl/internal/core"
	"spardl/internal/nn"
	"spardl/internal/pipeline"
	"spardl/internal/sparsecoll"
	"spardl/internal/train"
)

// The bit-identity harness: every reducer configuration below runs
// identSyncs synchronizations on the simulated fabric, and every rank's
// output and residual after every sync — plus its virtual clock bits, bytes
// and rounds — are hashed. The per-group hashes in identPinned were
// captured on the commit before sparse.AddInto replaced the scalar dense
// adds, so a match says every output, residual and accounting figure is
// bit-identical to that commit's. A change that means to move them
// re-pins the table and says why.
//
// The generated set: SparDL over P ∈ {4, 7, 8, 14}, d ∈ {1, 2, P} where d
// divides P, lazy and eager SRS, GRES / PRES / LRES, n ∈ {128, 4096, 65536}
// at k = n/50, and n = 4096 at k = n/4, where merges switch to dense
// blocks; the four baselines at the same sizes (gTopk at power-of-two P
// only); and the per-layer pipeline over the case-7 tensors the
// sync-live-buckets workload synchronizes. Inputs share a component across
// ranks (top-k sets overlap partly), swing ×20 and ×0.05 between syncs,
// and carry +Inf entries in one sync.

const identSyncs = 6

// identPinned maps each group to the FNV-1a fold of its configurations'
// hashes, in identCases order.
var identPinned = map[string]uint64{
	"spardl/P=4":     0x1261e56c24e6fd80,
	"spardl/P=7":     0xbf513e8cc3eb728b,
	"spardl/P=8":     0x630582502ed85067,
	"spardl/P=14":    0xce7a3ba7079602ac,
	"topka":          0xa7ffcb7dd1eee3b1,
	"topkdsa":        0xf3a9ddfca276f387,
	"gtopk":          0x6990e6ba35bd960c,
	"oktopk":         0xd2b97534f19787b,
	"pipeline/case7": 0x570d37c1aafd995d,
}

type identCase struct {
	group   string
	p, n, k int
	factory sparsecoll.Factory
	buckets bool
}

func identCases() []identCase {
	var cs []identCase
	sizes := [][2]int{{128, 128 / 50}, {4096, 4096 / 50}, {65536, 65536 / 50}, {4096, 4096 / 4}}
	for _, p := range []int{4, 7, 8, 14} {
		for _, d := range []int{1, 2, p} {
			if p%d != 0 {
				continue
			}
			for _, eager := range []bool{false, true} {
				for _, res := range []core.ResidualMode{core.GRES, core.PRES, core.LRES} {
					opts := core.Options{Teams: d, Eager: eager, Residual: res}
					for _, sz := range sizes {
						cs = append(cs, identCase{
							group: fmt.Sprintf("spardl/P=%d", p),
							p:     p, n: sz[0], k: sz[1], factory: core.NewFactory(opts),
						})
					}
				}
			}
		}
	}
	baselines := []struct {
		name string
		f    sparsecoll.Factory
		pow2 bool
	}{
		{"topka", sparsecoll.NewTopkA, false},
		{"topkdsa", sparsecoll.NewTopkDSA, false},
		{"gtopk", sparsecoll.NewGTopk, true},
		{"oktopk", sparsecoll.NewOkTopk, false},
	}
	for _, b := range baselines {
		for _, p := range []int{4, 7, 8, 14} {
			if b.pow2 && p&(p-1) != 0 {
				continue
			}
			for _, sz := range sizes[1:] {
				cs = append(cs, identCase{group: b.name, p: p, n: sz[0], k: sz[1], factory: b.f})
			}
		}
	}
	cs = append(cs, identCase{group: "pipeline/case7", p: 4, factory: core.NewFactory(core.Options{}), buckets: true})
	return cs
}

// identInput fills g with rank's input for one sync: a component shared by
// every rank plus the rank's own, both heavy-tailed, scaled by the sync's
// swing, with +Inf entries in sync 4.
func identInput(g []float32, seed uint64, rank, sync int) {
	scale := [identSyncs]float32{1, 1, 20, 0.05, 1, 1}[sync]
	shared := seed*0x9e3779b97f4a7c15 + uint64(sync)<<32
	own := shared ^ uint64(rank+1)*0xbf58476d1ce4e5b9
	for i := range g {
		s, o := identUnit(shared+uint64(i)), identUnit(own+uint64(i))
		g[i] = scale * (s*s*s + 0.5*o*o*o)
	}
	if sync == 4 {
		for i := (rank*7919 + 13) % len(g); i < len(g); i += 1021 {
			g[i] = float32(math.Inf(1))
		}
	}
}

// identUnit maps x through splitmix64 to a float32 in [-1, 1).
func identUnit(x uint64) float32 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return float32(int32(x>>40)-1<<23) / (1 << 23)
}

// identHash is FNV-1a, one 32-bit word per step.
type identHash uint64

func newIdentHash() identHash { return 14695981039346656037 }

func (h *identHash) word(w uint32) { *h = (*h ^ identHash(w)) * 1099511628211 }

func (h *identHash) floats(v []float32) {
	for _, x := range v {
		h.word(math.Float32bits(x))
	}
}

func (h *identHash) u64(x uint64) { h.word(uint32(x)); h.word(uint32(x >> 32)) }

// runIdent runs one configuration and returns its hash.
func runIdent(c identCase, seed uint64) uint64 {
	hashes := make([]identHash, c.p)
	spardl.RunCluster(c.p, spardl.Ethernet, func(rank int, ep *spardl.Endpoint) {
		h := newIdentHash()
		var sync func(g []float32)
		var residual func() []float32
		var n int
		var out []float32
		if c.buckets {
			cs := train.CaseByID(7)
			params := cs.NewModel(1).Params()
			segs := nn.GradSegments(params)
			n = nn.ParamCount(params)
			k := n / 100
			sched := pipeline.NewSchedule(c.factory, c.p, rank, k, segs, nn.GradReadyTimes(params, cs.ComputeTime), pipeline.Config{})
			flat := make([]float32, n)
			sync = func(g []float32) {
				for _, sg := range segs {
					sg.Param.Grad = g[sg.Lo:sg.Hi]
				}
				sched.Run(ep, segs, flat, out)
			}
			residual = func() []float32 {
				var res []float32
				for _, r := range sched.Reducers {
					res = append(res, r.Residual()...)
				}
				return res
			}
		} else {
			n = c.n
			r := c.factory(c.p, rank, n, c.k)
			sync = func(g []float32) { spardl.ReduceInto(r, ep, g, out) }
			residual = func() []float32 { return r.(sparsecoll.ResidualCarrier).Residual() }
		}
		out = make([]float32, n)
		g := make([]float32, n)
		for s := 0; s < identSyncs; s++ {
			identInput(g, seed, rank, s)
			sync(g)
			ep.SyncClock()
			h.floats(out)
			h.floats(residual())
			st := ep.Stats()
			h.u64(math.Float64bits(ep.Clock()))
			h.u64(uint64(st.BytesRecv))
			h.u64(uint64(st.BytesSent))
			h.u64(uint64(st.Rounds))
		}
		hashes[rank] = h
	})
	h := newIdentHash()
	for _, rh := range hashes {
		h.u64(uint64(rh))
	}
	return uint64(h)
}

// TestBitIdentity runs the generated set and compares each group's hash
// with the pinned one; on a mismatch it logs every group's hash.
func TestBitIdentity(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned on amd64; other architectures may fuse multiply-add")
	}
	got := map[string]identHash{}
	var order []string
	for i, c := range identCases() {
		h, ok := got[c.group]
		if !ok {
			h = newIdentHash()
			order = append(order, c.group)
		}
		h.u64(runIdent(c, uint64(i)))
		got[c.group] = h
	}
	bad := false
	for _, g := range order {
		if want, ok := identPinned[g]; !ok || uint64(got[g]) != want {
			bad = true
			t.Errorf("%s: hash %#x, pinned %#x", g, uint64(got[g]), want)
		}
	}
	if bad {
		for _, g := range order {
			t.Logf("%q: %#x,", g, uint64(got[g]))
		}
	}
}
