package expt

import (
	"math"
	"math/rand"

	"spardl/internal/comm"
	"spardl/internal/simnet"
	"spardl/internal/train"
)

// TimingScale is the default model-size scale for timing-only experiments:
// gradient vectors use n = PaperParams·TimingScale entries while β is
// multiplied by 1/TimingScale, which keeps every α-vs-β·n trade-off — and
// therefore every per-update time — numerically identical to paper scale
// at laptop-sized memory and CPU budgets.
const TimingScale = 0.002

// TimingConfig measures steady-state per-update time without real training:
// workers draw heavy-tailed synthetic gradients (cubed Gaussians, matching
// the kurtosis real gradients show) at paper-scale size.
type TimingConfig struct {
	Case    *train.Case
	P       int
	KRatio  float64
	Network comm.Profile
	Iters   int // measured iterations
	Warmup  int // iterations excluded from the averages
	Seed    int64
	// ComputeSkew optionally assigns per-worker compute-speed multipliers
	// (len P) modelling a heterogeneous cluster.
	ComputeSkew []float64
}

// TimingResult is the per-update breakdown for one method — one bar of
// Figs. 8, 10 or 18.
type TimingResult struct {
	Method     string
	PerUpdate  float64 // comm + comp, worst worker, steady state
	Comm       float64
	Comp       float64
	PerEpoch   []float64 // virtual seconds per synthetic epoch, when requested
	BytesRecvd int64     // per iteration, worst worker
}

// scaledProfile compensates the network profile for the model-size scale.
func scaledProfile(p comm.Profile) comm.Profile {
	p.Beta /= TimingScale
	return p
}

// syntheticGrad fills g with gradients that mimic three properties of real
// deep-learning gradients, all of which the compared algorithms are
// sensitive to:
//
//   - heavy tails (cubed Gaussians), so top-k selection is meaningful;
//   - layer structure: contiguous segments with lognormal magnitude scales,
//     so selections concentrate in hot regions (the imbalance that
//     Ok-Topk's re-balancing fights and SparDL's block top-k sidesteps);
//   - cross-worker correlation: workers compute gradients of the same
//     model on similar data, so their top entries largely agree — which is
//     what makes per-worker threshold selections approximate the global
//     top-k in Ok-Topk and friends.
//
// Deterministic per (seed, worker, iter); the shared component uses
// worker = -1 streams.
func syntheticGrad(g []float32, seed int64, worker, iter int) {
	mix := func(w, it int) *rand.Rand {
		h := seed
		h = h*1000003 + int64(w+3)
		h = h*1000003 + int64(it+11)
		return rand.New(rand.NewSource(h))
	}
	shared := mix(-1, iter)
	own := mix(worker, iter)
	// Segment scales: fixed per seed (layer identities persist across
	// iterations), lognormal spread.
	const segments = 64
	scaleRng := mix(-2, -1)
	scales := make([]float32, segments)
	for i := range scales {
		z := scaleRng.NormFloat64()
		scales[i] = float32(math.Exp(1.0 * z))
	}
	segLen := (len(g) + segments - 1) / segments
	for i := range g {
		s := scales[i/segLen]
		sh := float32(shared.NormFloat64())
		ow := float32(own.NormFloat64())
		g[i] = s * (0.55*sh*sh*sh + 0.65*ow*ow*ow)
	}
}

// MeasureTiming runs one method through warmup+measured iterations and
// returns its steady-state per-update breakdown. epochIters > 0 also
// records per-epoch wall-clock (for Figs. 12, 14, 15), measured over the
// full run including warmup dynamics, exactly like the paper's epoch plots.
func MeasureTiming(cfg TimingConfig, nf NamedFactory, epochIters int) TimingResult {
	n := int(float64(cfg.Case.PaperParams) * TimingScale)
	k := int(cfg.KRatio * float64(n))
	if k < cfg.P {
		k = cfg.P
	}
	total := cfg.Warmup + cfg.Iters
	res := TimingResult{Method: nf.Name}

	commT := make([][]float64, cfg.P)
	compT := make([][]float64, cfg.P)
	clock := make([][]float64, cfg.P)
	bytes := make([][]int64, cfg.P)
	for w := 0; w < cfg.P; w++ {
		commT[w] = make([]float64, total)
		compT[w] = make([]float64, total)
		clock[w] = make([]float64, total)
		bytes[w] = make([]int64, total)
	}

	simnet.Run(cfg.P, scaledProfile(cfg.Network), func(rank int, ep *simnet.Endpoint) {
		reducer := nf.Factory(cfg.P, rank, n, k)
		if rank == 0 {
			res.Method = reducer.Name()
		}
		g, out := make([]float32, n), make([]float32, n)
		skew := 1.0
		if cfg.ComputeSkew != nil {
			skew = cfg.ComputeSkew[rank]
		}
		for it := 0; it < total; it++ {
			syntheticGrad(g, cfg.Seed, rank, it)
			ep.Compute(cfg.Case.ComputeTime * skew)
			before := ep.Stats()
			reducer.ReduceInto(ep, g, out)
			after := ep.Stats()
			commT[rank][it] = after.CommTime - before.CommTime
			compT[rank][it] = cfg.Case.ComputeTime*skew + after.CompTime - before.CompTime
			bytes[rank][it] = after.BytesRecv - before.BytesRecv
			ep.SyncClock()
			clock[rank][it] = ep.Clock()
		}
	})

	// Steady-state averages over the worst worker per iteration.
	for it := cfg.Warmup; it < total; it++ {
		var worstComm, worstComp float64
		var worstBytes int64
		for w := 0; w < cfg.P; w++ {
			if commT[w][it] > worstComm {
				worstComm = commT[w][it]
			}
			if compT[w][it] > worstComp {
				worstComp = compT[w][it]
			}
			if bytes[w][it] > worstBytes {
				worstBytes = bytes[w][it]
			}
		}
		res.Comm += worstComm
		res.Comp += worstComp
		if worstBytes > res.BytesRecvd {
			res.BytesRecvd = worstBytes
		}
	}
	res.Comm /= float64(cfg.Iters)
	res.Comp /= float64(cfg.Iters)
	// Per-update wall time from the synchronized clock trajectory.
	span := clock[0][total-1]
	if cfg.Warmup > 0 {
		span -= clock[0][cfg.Warmup-1]
	}
	res.PerUpdate = span / float64(cfg.Iters)

	if epochIters > 0 {
		prev := 0.0
		for e := 0; (e+1)*epochIters <= total; e++ {
			end := clock[0][(e+1)*epochIters-1]
			res.PerEpoch = append(res.PerEpoch, end-prev)
			prev = end
		}
	}
	return res
}

// measureAll runs MeasureTiming for a list of methods.
func measureAll(cfg TimingConfig, methods []NamedFactory, epochIters int) []TimingResult {
	out := make([]TimingResult, 0, len(methods))
	for _, nf := range methods {
		out = append(out, MeasureTiming(cfg, nf, epochIters))
	}
	return out
}
