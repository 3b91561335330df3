package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
	"spardl/internal/wire"
)

var unit = comm.Profile{Name: "unit", Alpha: 1, Beta: 1}

func zeroCompCost(t *testing.T) {
	t.Helper()
	saved := sparsecoll.DefaultCompCost
	sparsecoll.DefaultCompCost = sparsecoll.CompCost{}
	t.Cleanup(func() { sparsecoll.DefaultCompCost = saved })
}

func makeGradients(iters, p, n int, seed int64) [][][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][][]float32, iters)
	for it := range out {
		out[it] = make([][]float32, p)
		for w := range out[it] {
			g := make([]float32, n)
			for i := range g {
				g[i] = float32(rng.NormFloat64())
			}
			out[it][w] = g
		}
	}
	return out
}

// reduce runs one ReduceInto into a fresh vector of grad's length.
func reduce(r sparsecoll.Reducer, ep comm.Endpoint, grad []float32) []float32 {
	out := make([]float32, len(grad))
	r.ReduceInto(ep, grad, out)
	return out
}

func runSparDL(t *testing.T, p, n, k, iters int, seed int64, opts Options) (outs [][][]float32, reducers []*SparDL, rep *simnet.Report) {
	t.Helper()
	return runTuned(t, p, n, k, iters, seed, opts, wire.ModeCOO)
}

// runTuned is runSparDL with the reducers built by
// sparsecoll.Tuned(NewFactory(opts), mode).
func runTuned(t *testing.T, p, n, k, iters int, seed int64, opts Options, mode wire.Mode) (outs [][][]float32, reducers []*SparDL, rep *simnet.Report) {
	t.Helper()
	if err := opts.Validate(p); err != nil {
		t.Fatal(err)
	}
	f := sparsecoll.Tuned(NewFactory(opts), mode)
	grads := makeGradients(iters, p, n, seed)
	outs = make([][][]float32, iters)
	for it := range outs {
		outs[it] = make([][]float32, p)
	}
	reducers = make([]*SparDL, p)
	rep = simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
		r := f(p, rank, n, k).(*SparDL)
		reducers[rank] = r
		for it := 0; it < iters; it++ {
			outs[it][rank] = reduce(r, ep, grads[it][rank])
			ep.SyncClock()
		}
	})
	return outs, reducers, rep
}

func assertConsistent(t *testing.T, outs [][][]float32) {
	t.Helper()
	for it, perWorker := range outs {
		ref := perWorker[0]
		for w := 1; w < len(perWorker); w++ {
			if !reflect.DeepEqual(perWorker[w], ref) {
				for i := range ref {
					if perWorker[w][i] != ref[i] {
						t.Fatalf("iter %d: worker %d diverges at index %d: %g vs %g",
							it, w, i, perWorker[w][i], ref[i])
					}
				}
			}
		}
	}
}

func TestSendBagsMatchesPaperExample(t *testing.T) {
	// Section III-B, Example 1: six workers → preservation block plus bags
	// {1}, {2,3} and the truncated last bag {4,5} (E = 6 − 4 = 2), given as
	// relative offsets from the preservation block.
	got := sendBags(6)
	want := [][]int{{1}, {2, 3}, {4, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sendBags(6) = %v, want %v", got, want)
	}
	if got := sendBags(8); !reflect.DeepEqual(got, [][]int{{1}, {2, 3}, {4, 5, 6, 7}}) {
		t.Fatalf("sendBags(8) = %v", got)
	}
	if got := sendBags(2); !reflect.DeepEqual(got, [][]int{{1}}) {
		t.Fatalf("sendBags(2) = %v", got)
	}
	if sendBags(1) != nil {
		t.Fatal("sendBags(1) should be nil")
	}
	// All offsets 1..m-1 must appear exactly once.
	for m := 2; m <= 33; m++ {
		seen := map[int]bool{}
		for _, bag := range sendBags(m) {
			for _, r := range bag {
				if r < 1 || r >= m || seen[r] {
					t.Fatalf("m=%d: bad or duplicate offset %d", m, r)
				}
				seen[r] = true
			}
		}
		if len(seen) != m-1 {
			t.Fatalf("m=%d: %d offsets, want %d", m, len(seen), m-1)
		}
	}
}

func TestSparDLConsistencyAllWorkerCounts(t *testing.T) {
	// SRS must work for any number of workers (the paper's headline
	// structural claim), unlike recursive-doubling methods.
	for _, p := range []int{2, 3, 5, 6, 8, 11, 14} {
		const n, k, iters = 1400, 140, 3
		outs, _, _ := runSparDL(t, p, n, k, iters, int64(p), Options{})
		assertConsistent(t, outs)
	}
}

func TestSparDLTable1CostD1(t *testing.T) {
	zeroCompCost(t)
	// Eq. 4: 2⌈log₂P⌉ rounds and 4k(P-1)/P wire elements (×4 bytes each).
	for _, p := range []int{4, 7, 14} {
		n := 200 * p
		k := 10 * p // k/P = 10 entries per block, every block saturates
		_, _, rep := runSparDL(t, p, n, k, 1, 3, Options{})
		if want := 2 * ceilLog2(p); rep.MaxRounds() != want {
			t.Fatalf("P=%d rounds=%d want %d", p, rep.MaxRounds(), want)
		}
		if want := int64(16 * k * (p - 1) / p); rep.MaxBytesRecv() != want {
			t.Fatalf("P=%d bytes=%d want %d", p, rep.MaxBytesRecv(), want)
		}
	}
}

func TestSparDLRSAGConsistencyAndConservation(t *testing.T) {
	for _, tc := range []struct{ p, d int }{{8, 2}, {8, 4}, {14, 2}, {12, 4}} {
		const n, k, iters = 1680, 168, 3
		seed := int64(30 + tc.d)
		opts := Options{Teams: tc.d}
		outs, _, _ := runSparDL(t, tc.p, n, k, iters, seed, opts)
		assertConsistent(t, outs)
	}
}

func TestSparDLRSAGCost(t *testing.T) {
	zeroCompCost(t)
	// Eq. 7: (2⌈log₂(P/d)⌉ + log₂d)α and 2k((2P-2d)/P + (d/P)log₂d)β.
	for _, tc := range []struct{ p, d int }{{8, 2}, {8, 4}, {14, 2}} {
		p, d := tc.p, tc.d
		m := p / d
		n := 200 * m
		k := 10 * m * d // blockK = dk/P = 10d exactly
		_, _, rep := runSparDL(t, p, n, k, 1, 4, Options{Teams: d})
		if want := 2*ceilLog2(m) + ceilLog2(d); rep.MaxRounds() != want {
			t.Fatalf("P=%d d=%d rounds=%d want %d", p, d, rep.MaxRounds(), want)
		}
		blockK := d * k / p
		wantBytes := int64(8*blockK*(m-1)*2 + 8*blockK*ceilLog2(d))
		if rep.MaxBytesRecv() != wantBytes {
			t.Fatalf("P=%d d=%d bytes=%d want %d", p, d, rep.MaxBytesRecv(), wantBytes)
		}
	}
}

func TestSparDLBSAGConsistencyAndConservation(t *testing.T) {
	for _, tc := range []struct{ p, d int }{{6, 3}, {14, 7}, {14, 14}, {12, 6}, {12, 3}, {14, 2}} {
		const n, k, iters = 1680, 168, 4
		seed := int64(50 + tc.d)
		opts := Options{Teams: tc.d, Variant: BSAG}
		outs, _, _ := runSparDL(t, tc.p, n, k, iters, seed, opts)
		assertConsistent(t, outs)
	}
}

func TestSparDLBSAGRecordsNt(t *testing.T) {
	const p, d, n, k, iters = 6, 3, 1200, 120, 5
	_, reds, _ := runSparDL(t, p, n, k, iters, 60, Options{Teams: d, Variant: BSAG})
	for _, r := range reds {
		nts := r.BsagCounts()
		if len(nts) != iters {
			t.Fatalf("recorded %d N_t values, want %d", len(nts), iters)
		}
		lo, hi := k/p, d*k/p
		for _, nt := range nts {
			// N_t is the union of d chunks of ≤h ≤ dk/P entries each; it can
			// reach d·h but must stay within [1, d·dk/P].
			if nt < 1 || nt > d*hi {
				t.Fatalf("N_t=%d outside sane range [1, %d] (h range [%d,%d])", nt, d*hi, lo, hi)
			}
		}
	}
}

func TestSparDLEagerMode(t *testing.T) {
	const p, n, k, iters, seed = 6, 1200, 120, 3, 70
	outs, _, _ := runSparDL(t, p, n, k, iters, seed, Options{Eager: true})
	assertConsistent(t, outs)
}

func TestPRESAndLRESLoseMass(t *testing.T) {
	// The ablations drop the residual classes they claim to drop: PRES
	// in-procedure mass, LRES in-procedure and end-procedure mass. Each
	// keeps its own ledger law, and each breaks the conservation equation
	// GRES keeps.
	const p, n, iters, seed = 6, 1200, 4, 71
	grads := ledgerGrads(iters, p, n, seed)
	for _, c := range []struct {
		mode ResidualMode
		law  ledgerLaw
	}{{PRES, lawPRES}, {LRES, lawLRES}} {
		outs, res, _ := runResiduals(p, n, iters, grads, func(rank int) residualReducer {
			s, err := New(p, rank, n, 60, Options{Residual: c.mode})
			if err != nil {
				panic(err)
			}
			return s
		})
		assertConsistent(t, outs)
		bad, lost := checkLedger(c.law, grads, outs, res)
		if bad != "" {
			t.Fatalf("%s fails its law: %s", c.mode, bad)
		}
		if lost == 0 {
			t.Fatalf("%s conserves mass at every index; it should lose some", c.mode)
		}
	}
}

// Negotiated accounting must not change any computed value — only the
// bytes the simulator charges. It must keep workers consistent and (at
// realistic sparsity) charge strictly fewer bytes than the COO baseline, in
// the same number of rounds.
func TestSparDLWireModes(t *testing.T) {
	configs := []Options{
		{},
		{Teams: 2},
		{Teams: 3, Variant: BSAG},
	}
	for _, opts := range configs {
		const p, n, k, iters, seed = 6, 24000, 240, 3, 77 // k/n = 1e-2
		outsCOO, _, repCOO := runSparDL(t, p, n, k, iters, seed, opts)
		outs, _, rep := runTuned(t, p, n, k, iters, seed, opts, wire.ModeNegotiated)
		assertConsistent(t, outs)
		// Identical math: the synchronized gradients must match the COO
		// run bit-for-bit.
		for it := range outs {
			if !reflect.DeepEqual(outs[it][0], outsCOO[it][0]) {
				t.Fatalf("%+v: wire mode changed the computed gradient at iter %d", opts, it)
			}
		}
		if rep.MaxBytesRecv() >= repCOO.MaxBytesRecv() {
			t.Fatalf("%+v: negotiated bytes %d not below COO %d",
				opts, rep.MaxBytesRecv(), repCOO.MaxBytesRecv())
		}
		if rep.MaxRounds() != repCOO.MaxRounds() {
			t.Fatalf("%+v: negotiated accounting changed the rounds: %d, COO %d",
				opts, rep.MaxRounds(), repCOO.MaxRounds())
		}
	}
}

func TestSparDLNames(t *testing.T) {
	cases := []struct {
		opts Options
		mode wire.Mode
		p    int
		want string
	}{
		{Options{}, wire.ModeCOO, 14, "SparDL"},
		{Options{Teams: 2}, wire.ModeCOO, 14, "SparDL(R-SAG,d=2)"},
		{Options{Teams: 7}, wire.ModeCOO, 14, "SparDL(B-SAG,d=7)"},
		{Options{Teams: 2, Variant: BSAG}, wire.ModeCOO, 14, "SparDL(B-SAG,d=2)"},
		{Options{Residual: PRES}, wire.ModeCOO, 14, "SparDL-PRES"},
		{Options{Residual: LRES}, wire.ModeCOO, 14, "SparDL-LRES"},
		{Options{Eager: true}, wire.ModeCOO, 14, "SparDL-eager"},
		{Options{}, wire.ModeNegotiated, 14, "SparDL+negotiated"},
		{Options{Teams: 2}, wire.ModeNegotiated, 14, "SparDL(R-SAG,d=2)+negotiated"},
	}
	for _, tc := range cases {
		r := sparsecoll.Tuned(NewFactory(tc.opts), tc.mode)(tc.p, 0, 1400, 140)
		if r.Name() != tc.want {
			t.Fatalf("Name() = %q, want %q", r.Name(), tc.want)
		}
	}
}

// TestOptionStrings pins every ResidualMode and Variant name. Name never
// prints the defaults, GRES and Auto, so nothing else reads theirs.
func TestOptionStrings(t *testing.T) {
	for _, tc := range []struct {
		v    fmt.Stringer
		want string
	}{
		{GRES, "GRES"}, {PRES, "PRES"}, {LRES, "LRES"}, {ResidualMode(9), "ResidualMode(9)"},
		{Auto, "Auto"}, {BSAG, "B-SAG"}, {Variant(9), "Variant(9)"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestNewFactoryPanicsOnUnfixableOptions: FitTeams re-fits the team count,
// but no team count fixes an unknown variant, so the factory must panic
// with New's error instead of handing the trainer a nil reducer.
func TestNewFactoryPanicsOnUnfixableOptions(t *testing.T) {
	var r sparsecoll.Reducer
	got := func() (v any) {
		defer func() { v = recover() }()
		r = NewFactory(Options{Variant: Variant(9)})(4, 0, 100, 10)
		return nil
	}()
	if !strings.Contains(fmt.Sprint(got), "unknown SAG variant") {
		t.Fatalf("NewFactory returned %v and panicked with %v", r, got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(14, 0, 100, 10, Options{Teams: 3}); err == nil {
		t.Fatal("d=3 must not divide P=14")
	}
	if _, err := New(12, 0, 100, 10, Options{Teams: 3}); err != nil {
		t.Fatalf("auto variant with d=3 should pick B-SAG: %v", err)
	}
	if _, err := New(4, 0, 100, 0, Options{}); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := New(4, 0, 100, 101, Options{}); err == nil {
		t.Fatal("k>n must fail")
	}
	if _, err := New(4, 5, 100, 10, Options{}); err == nil {
		t.Fatal("rank out of range must fail")
	}
	if _, err := New(4, 0, 100, 10, Options{Teams: -2}); err == nil {
		t.Fatal("a negative team count must fail, though it divides P")
	}
}

// Property test: random legal configurations keep workers consistent.
func TestSparDLPropertyRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		p := 2 + rng.Intn(13)
		divisors := []int{1}
		for d := 2; d <= p; d++ {
			if p%d == 0 {
				divisors = append(divisors, d)
			}
		}
		d := divisors[rng.Intn(len(divisors))]
		n := 400 + rng.Intn(1600)
		k := p + rng.Intn(n/4)
		seed := rng.Int63()
		opts := Options{Teams: d}
		iters := 2 + rng.Intn(2)
		outs, _, _ := runSparDL(t, p, n, k, iters, seed, opts)
		assertConsistent(t, outs)
	}
}

func ceilLog2(p int) int {
	l := 0
	for 1<<l < p {
		l++
	}
	return l
}
