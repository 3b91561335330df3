package train

import (
	"reflect"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/sparsecoll"
)

func baseConfig() Config {
	return Config{
		Case:      CaseByID(1),
		P:         4,
		KRatio:    0.01,
		Network:   comm.Ethernet,
		Factory:   core.NewFactory(core.Options{}),
		Iters:     40,
		Seed:      7,
		EvalEvery: 10,
	}
}

func TestRunProducesTrajectory(t *testing.T) {
	res := Run(baseConfig())
	if res.Method != "SparDL" {
		t.Fatalf("method = %q", res.Method)
	}
	if res.N == 0 || res.K != res.N/100 {
		t.Fatalf("n=%d k=%d", res.N, res.K)
	}
	if len(res.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(res.Points))
	}
	lastTime := 0.0
	for _, p := range res.Points {
		if p.Time <= lastTime {
			t.Fatalf("virtual time not increasing: %+v", res.Points)
		}
		lastTime = p.Time
	}
	if res.PerUpdateTime <= 0 || res.CommTime <= 0 || res.CompTime < CaseByID(1).ComputeTime {
		t.Fatalf("bad time split: %+v", res)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a := Run(baseConfig())
	b := Run(baseConfig())
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatalf("two identical runs diverged:\n%v\n%v", a.Points, b.Points)
	}
	if a.TotalTime != b.TotalTime {
		t.Fatalf("total times differ: %g vs %g", a.TotalTime, b.TotalTime)
	}
}

func TestModelLearns(t *testing.T) {
	cfg := baseConfig()
	cfg.Iters = 80
	cfg.EvalEvery = 80
	res := Run(cfg)
	if res.FinalMetric < 0.5 {
		t.Fatalf("model failed to learn: accuracy %.3f", res.FinalMetric)
	}
}

func TestSparseBeatsDenseOnCommTime(t *testing.T) {
	sparse := Run(baseConfig())
	cfg := baseConfig()
	cfg.Factory = sparsecoll.NewDense
	dense := Run(cfg)
	if sparse.CommTime >= dense.CommTime {
		t.Fatalf("sparse comm %.6fs not faster than dense %.6fs", sparse.CommTime, dense.CommTime)
	}
	// Computation cost must be essentially method-independent (the paper's
	// observation in Section IV-C); selection overhead adds a little.
	if sparse.CompTime < dense.CompTime/2 || sparse.CompTime > dense.CompTime*3 {
		t.Fatalf("comp times implausible: sparse %.6f dense %.6f", sparse.CompTime, dense.CompTime)
	}
}

func TestCasesRegistry(t *testing.T) {
	if len(Cases) != 7 {
		t.Fatalf("want 7 cases, got %d", len(Cases))
	}
	// Paper ordering of model sizes: 4 < 1 < 2 < 3 < 5 < 6 < 7.
	order := []int{4, 1, 2, 3, 5, 6, 7}
	prev := 0
	for _, id := range order {
		c := CaseByID(id)
		if c.PaperParams <= prev {
			t.Fatalf("paper param ordering broken at case %d", id)
		}
		prev = c.PaperParams
		if c.ComputeTime <= 0 || c.BatchSize <= 0 || c.ItersPerEpoch <= 0 {
			t.Fatalf("case %d has unset constants", id)
		}
		m := c.NewModel(1)
		if len(m.Params()) == 0 {
			t.Fatalf("case %d model has no parameters", id)
		}
		if c.NewData(1).Name() == "" {
			t.Fatalf("case %d dataset unnamed", id)
		}
	}
}

func TestCaseStandInSizeOrdering(t *testing.T) {
	// The scaled stand-ins must preserve the relative size ordering too.
	sizes := map[int]int{}
	for _, c := range Cases {
		m := c.NewModel(1)
		n := 0
		for _, p := range m.Params() {
			n += p.Len()
		}
		sizes[c.ID] = n
	}
	order := []int{4, 1, 2, 3, 5, 6, 7}
	for i := 1; i < len(order); i++ {
		if sizes[order[i]] <= sizes[order[i-1]] {
			t.Fatalf("stand-in size ordering broken: case %d (%d params) <= case %d (%d params)",
				order[i], sizes[order[i]], order[i-1], sizes[order[i-1]])
		}
	}
}

func TestPaperScaleCommMakesCommRealistic(t *testing.T) {
	base := baseConfig()
	base.Iters = 10
	plain := Run(base)

	scaled := baseConfig()
	scaled.Iters = 10
	scaled.PaperScaleComm = true
	paper := Run(scaled)

	ratio := float64(CaseByID(1).PaperParams) / float64(plain.N)
	if ratio < 10 {
		t.Skip("stand-in unexpectedly large")
	}
	// β grows by PaperParams/n, so comm time must grow substantially (not
	// exactly linearly: the α term is unchanged).
	if paper.CommTime < 5*plain.CommTime {
		t.Fatalf("PaperScaleComm had little effect: %.6fs vs %.6fs", paper.CommTime, plain.CommTime)
	}
	if paper.CompTime != plain.CompTime {
		t.Fatalf("compute time must be unaffected: %.6f vs %.6f", paper.CompTime, plain.CompTime)
	}
}
