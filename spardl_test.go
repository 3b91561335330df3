package spardl_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"spardl"
	"spardl/internal/sparsecoll"
	"spardl/internal/tcpnet"
	"spardl/internal/train"
)

// TestFacadeQuickstart is the README's quick-start path: eight workers
// all-reduce one sparse gradient and end up bit-identical.
func TestFacadeQuickstart(t *testing.T) {
	const p, n, k = 8, 4000, 40
	outs := make([][]float32, p)
	spardl.RunCluster(p, spardl.Ethernet, func(rank int, ep *spardl.Endpoint) {
		r, err := spardl.New(p, rank, n, k, spardl.Options{})
		if err != nil {
			t.Error(err)
			return
		}
		grad := make([]float32, n)
		for i := range grad {
			grad[i] = float32((rank+1)*(i%17)) / 100
		}
		outs[rank] = make([]float32, n)
		r.ReduceInto(ep, grad, outs[rank])
	})
	for w := 1; w < p; w++ {
		for i := range outs[0] {
			if outs[w][i] != outs[0][i] {
				t.Fatalf("worker %d disagrees at %d", w, i)
			}
		}
	}
}

func TestFacadeBaselines(t *testing.T) {
	for _, name := range []string{"topka", "topkdsa", "oktopk", "dense"} {
		f, err := spardl.ParseFactory(name, 6, 1, "", "")
		if err != nil {
			t.Fatal(err)
		}
		if r := f(6, 0, 100, 10); r.Name() == "" {
			t.Fatalf("%s: empty reducer name", name)
		}
	}
	f, err := spardl.ParseFactory("gtopk", 8, 1, "", "") // power-of-two P only
	if err != nil {
		t.Fatal(err)
	}
	if r := f(8, 0, 100, 10); r.Name() != "gTopk" {
		t.Fatal("gtopk factory broken")
	}
}

func TestFacadeCases(t *testing.T) {
	if len(train.Cases) != 7 {
		t.Fatalf("want 7 cases")
	}
	if spardl.CaseByID(2).Name != "VGG19/CIFAR100" {
		t.Fatal("case registry broken")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(spardl.Experiments()) < 14 {
		t.Fatalf("experiment registry too small: %d", len(spardl.Experiments()))
	}
	if _, err := spardl.ExperimentByID("fig9"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeParseFactory(t *testing.T) {
	if _, err := spardl.ParseFactory("spardl", 6, 3, "bsag", "gres"); err != nil {
		t.Fatal(err)
	}
	if _, err := spardl.ParseFactory("gtopk", 8, 1, "", ""); err != nil {
		t.Fatal(err)
	}
	// Configuration errors must come back as errors before any worker runs.
	for _, bad := range []func() (spardl.Factory, error){
		func() (spardl.Factory, error) { return spardl.ParseFactory("gtopk", 6, 1, "", "") },
		func() (spardl.Factory, error) { return spardl.ParseFactory("spardl", 6, 3, "rsag", "") },
		func() (spardl.Factory, error) { return spardl.ParseFactory("spardl", 6, 4, "", "") },
		func() (spardl.Factory, error) { return spardl.ParseFactory("nosuch", 6, 1, "", "") },
		func() (spardl.Factory, error) { return spardl.ParseFactory("spardl", 6, 1, "nosuch", "") },
	} {
		if _, err := bad(); err == nil {
			t.Fatal("expected a configuration error")
		}
	}
}

// TestFacadeTCP drives spardl.TrainTCP, the one way a process joins a
// tcpnet fleet, with the P ranks as goroutines of this process over
// loopback (the separate-process axis is pinned by internal/tcpnet's forked
// equivalence suite). Its error classes are a spardl-train tcp rank's exit
// codes.
func TestFacadeTCP(t *testing.T) {
	const p, iters = 3, 6
	base := spardl.TrainConfig{
		Case: spardl.CaseByID(1), KRatio: 0.01, Factory: spardl.NewFactory(spardl.Options{}),
		Iters: iters, Seed: 1, EvalEvery: 2,
	}
	// fleet runs one TrainTCP per rank with factory f and returns each
	// rank's result and error.
	fleet := func(t *testing.T, f spardl.Factory) ([]*spardl.TrainResult, []error) {
		addr, err := tcpnet.ReserveLoopbackAddr()
		if err != nil {
			t.Fatal(err)
		}
		res, errs := make([]*spardl.TrainResult, p), make([]error, p)
		var wg sync.WaitGroup
		for rank := 0; rank < p; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				cfg := base
				cfg.Factory = f
				res[rank], _, errs[rank] = spardl.TrainTCP(spardl.TCPConfig{Rendezvous: addr, P: p, Rank: rank}, cfg)
			}(rank)
		}
		wg.Wait()
		return res, errs
	}

	t.Run("healthy", func(t *testing.T) {
		res, errs := fleet(t, base.Factory)
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", rank, err)
			}
		}
		live := base
		live.P, live.Backend = p, spardl.LiveBackend()
		want, got := spardl.Train(live), res[0]
		if len(got.Points) != len(want.Points) {
			t.Fatalf("tcp has %d points, live %d", len(got.Points), len(want.Points))
		}
		for i, w := range want.Points {
			g := got.Points[i]
			if g.Iter != w.Iter || math.Float64bits(g.Loss) != math.Float64bits(w.Loss) ||
				math.Float64bits(g.Metric) != math.Float64bits(w.Metric) {
				t.Fatalf("point %d: tcp %+v, live %+v", i, g, w)
			}
		}
		if math.Float64bits(got.FinalMetric) != math.Float64bits(want.FinalMetric) ||
			math.Float64bits(got.FinalLoss) != math.Float64bits(want.FinalLoss) {
			t.Fatalf("final: tcp %v / %v, live %v / %v", got.FinalMetric, got.FinalLoss, want.FinalMetric, want.FinalLoss)
		}
	})

	t.Run("nothing listening", func(t *testing.T) {
		addr, err := tcpnet.ReserveLoopbackAddr()
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = spardl.TrainTCP(spardl.TCPConfig{Rendezvous: addr, P: 2, Rank: 1, Timeout: 500 * time.Millisecond}, base)
		if !errors.Is(err, spardl.ErrTCPRendezvous) {
			t.Fatalf("want a rendezvous failure, got %v", err)
		}
	})

	t.Run("panic on rank 2", func(t *testing.T) {
		_, errs := fleet(t, func(p, rank, n, k int) sparsecoll.Reducer {
			if rank == 2 {
				panic("factory refuses rank 2")
			}
			return base.Factory(p, rank, n, k)
		})
		for rank, err := range errs[:2] {
			if !spardl.IsPoisoned(err) {
				t.Errorf("survivor %d: want a poisoned fabric, got %v", rank, err)
			}
		}
		if errs[2] == nil {
			t.Error("rank 2 panicked but returned no error")
		}
	})
}

func TestFacadeTrain(t *testing.T) {
	res := spardl.Train(spardl.TrainConfig{
		Case: spardl.CaseByID(1), P: 4, KRatio: 0.01,
		Network: spardl.Ethernet, Factory: spardl.NewFactory(spardl.Options{Teams: 2}),
		Iters: 10, Seed: 1,
	})
	if res.Method != "SparDL(R-SAG,d=2)" || res.TotalTime <= 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

// TestFacadeExportsHaveCallers holds the facade to its callers: every
// exported top-level identifier of spardl.go must be named as spardl.X, in
// code or in a comment, by some non-test Go file under cmd/ or examples/.
// An export nothing names belongs in its internal package, not here.
func TestFacadeExportsHaveCallers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "spardl.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var exports []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				exports = append(exports, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					exports = append(exports, s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						exports = append(exports, id.Name)
					}
				}
			}
		}
	}
	named := map[string]bool{}
	ref := regexp.MustCompile(`\bspardl\.([A-Z]\w*)`)
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			for _, m := range ref.FindAllSubmatch(src, -1) {
				named[string(m[1])] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range exports {
		if ast.IsExported(id) && !named[id] {
			t.Errorf("spardl.%s is exported, but no file under cmd/ or examples/ names it", id)
		}
	}
	if len(named) == 0 {
		t.Error("no spardl.X reference found under cmd/ or examples/: the walk is broken")
	}
}
