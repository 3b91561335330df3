package spardl_test

import (
	"testing"

	"spardl"
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
	for name, f := range spardl.Methods {
		if name == "gtopk" {
			continue // power-of-two only; exercised below
		}
		r := f(6, 0, 100, 10)
		if r.Name() == "" {
			t.Fatalf("%s: empty reducer name", name)
		}
	}
	if r := spardl.Methods["gtopk"](8, 0, 100, 10); r.Name() != "gTopk" {
		t.Fatal("gtopk factory broken")
	}
}

func TestFacadeCases(t *testing.T) {
	if len(spardl.Cases()) != 7 {
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

// TestFacadeTCP runs the quick-start workload over the tcpnet facade with
// the P ranks as goroutines of this process (the separate-process axis is
// pinned by internal/tcpnet's forked equivalence suite).
func TestFacadeTCP(t *testing.T) {
	const p, n, k = 4, 2000, 20
	addr, err := spardl.ReserveTCPAddr()
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]float32, p)
	done := make(chan error, p)
	for rank := 0; rank < p; rank++ {
		go func(rank int) {
			ep, err := spardl.TCPStart(spardl.TCPConfig{Rendezvous: addr, P: p, Rank: rank})
			if err != nil {
				done <- err
				return
			}
			defer ep.Close()
			spardl.TCPSelfBackend(ep).Run(p, func(rank int, cep spardl.CommEndpoint) {
				r, err := spardl.New(p, rank, n, k, spardl.Options{})
				if err != nil {
					done <- err
					return
				}
				grad := make([]float32, n)
				for i := range grad {
					grad[i] = float32((rank+1)*(i%17)) / 100
				}
				outs[rank] = make([]float32, n)
				r.ReduceInto(cep, grad, outs[rank])
			})
			done <- nil
		}(rank)
	}
	for i := 0; i < p; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for w := 1; w < p; w++ {
		for i := range outs[0] {
			if outs[w][i] != outs[0][i] {
				t.Fatalf("worker %d disagrees at %d", w, i)
			}
		}
	}
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
