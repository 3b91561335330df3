package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
)

var unit = simnet.Profile{Name: "unit", Alpha: 1, Beta: 1}

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

func runSparDL(t *testing.T, p, n, k, iters int, seed int64, opts Options) (outs [][][]float32, reducers []*SparDL, rep *simnet.Report) {
	t.Helper()
	grads := makeGradients(iters, p, n, seed)
	outs = make([][][]float32, iters)
	for it := range outs {
		outs[it] = make([][]float32, p)
	}
	reducers = make([]*SparDL, p)
	rep = simnet.Run(p, unit, func(rank int, ep *simnet.Endpoint) {
		r, err := New(p, rank, n, k, opts)
		if err != nil {
			panic(err)
		}
		reducers[rank] = r
		for it := 0; it < iters; it++ {
			outs[it][rank] = r.Reduce(ep, grads[it][rank])
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

// conservationGap computes injected − synchronized − leftover gradient mass
// across the whole run; GRES must keep it at float-noise level.
func conservationGap(p, n, iters int, seed int64, outs [][][]float32, reducers []*SparDL) float64 {
	grads := makeGradients(iters, p, n, seed)
	var injected, synced, leftover float64
	for it := 0; it < iters; it++ {
		for w := 0; w < p; w++ {
			for _, v := range grads[it][w] {
				injected += float64(v)
			}
		}
		for _, v := range outs[it][0] {
			synced += float64(v)
		}
	}
	for _, r := range reducers {
		for _, v := range r.Residual() {
			leftover += float64(v)
		}
	}
	return injected - synced - leftover
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

func TestSparDLConservationGRES(t *testing.T) {
	for _, p := range []int{3, 6, 14} {
		const n, k, iters, seed = 1400, 140, 4, 21
		outs, reds, _ := runSparDL(t, p, n, k, iters, seed, Options{})
		gap := conservationGap(p, n, iters, seed, outs, reds)
		if math.Abs(gap) > 1e-2 {
			t.Fatalf("P=%d: GRES conservation gap %g", p, gap)
		}
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
		opts := Options{Teams: tc.d, Variant: RSAG}
		outs, reds, _ := runSparDL(t, tc.p, n, k, iters, seed, opts)
		assertConsistent(t, outs)
		gap := conservationGap(tc.p, n, iters, seed, outs, reds)
		if math.Abs(gap) > 1e-2 {
			t.Fatalf("P=%d d=%d: conservation gap %g", tc.p, tc.d, gap)
		}
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
		_, _, rep := runSparDL(t, p, n, k, 1, 4, Options{Teams: d, Variant: RSAG})
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
		outs, reds, _ := runSparDL(t, tc.p, n, k, iters, seed, opts)
		assertConsistent(t, outs)
		gap := conservationGap(tc.p, n, iters, seed, outs, reds)
		if math.Abs(gap) > 1e-2 {
			t.Fatalf("P=%d d=%d: conservation gap %g", tc.p, tc.d, gap)
		}
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
	outs, reds, _ := runSparDL(t, p, n, k, iters, seed, Options{Eager: true})
	assertConsistent(t, outs)
	gap := conservationGap(p, n, iters, seed, outs, reds)
	if math.Abs(gap) > 1e-2 {
		t.Fatalf("eager conservation gap %g", gap)
	}
}

func TestPRESAndLRESLoseMass(t *testing.T) {
	// The ablations must actually drop the residual classes they claim to
	// drop: PRES loses in-procedure mass, LRES loses in-procedure and
	// end-procedure mass. Measure |conservation gap| ordering.
	const p, n, k, iters, seed = 6, 1200, 60, 4, 71
	gaps := map[ResidualMode]float64{}
	for _, mode := range []ResidualMode{GRES, PRES, LRES} {
		outs, reds, _ := runSparDL(t, p, n, k, iters, seed, Options{Residual: mode})
		assertConsistent(t, outs)
		gaps[mode] = math.Abs(conservationGap(p, n, iters, seed, outs, reds))
	}
	if gaps[GRES] > 1e-2 {
		t.Fatalf("GRES gap %g should be ≈0", gaps[GRES])
	}
	if gaps[PRES] < 1e-3 {
		t.Fatalf("PRES gap %g should be materially > 0", gaps[PRES])
	}
	if gaps[LRES] < 1e-3 {
		t.Fatalf("LRES gap %g should be materially > 0", gaps[LRES])
	}
}

// Negotiated accounting must not change any computed value — only the
// bytes the simulator charges. It must keep workers consistent, conserve
// mass under GRES, and (at realistic sparsity) charge strictly fewer bytes
// than the COO baseline, in the same number of rounds.
func TestSparDLWireModes(t *testing.T) {
	configs := []Options{
		{},
		{Teams: 2, Variant: RSAG},
		{Teams: 3, Variant: BSAG},
	}
	for _, base := range configs {
		const p, n, k, iters, seed = 6, 24000, 240, 3, 77 // k/n = 1e-2
		outsCOO, _, repCOO := runSparDL(t, p, n, k, iters, seed, base)

		opts := base
		opts.Wire = WireNegotiated
		outs, reds, rep := runSparDL(t, p, n, k, iters, seed, opts)
		assertConsistent(t, outs)
		if gap := conservationGap(p, n, iters, seed, outs, reds); math.Abs(gap) > 1e-2 {
			t.Fatalf("%+v: conservation gap %g", opts, gap)
		}
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
		p    int
		want string
	}{
		{Options{}, 14, "SparDL"},
		{Options{Teams: 2}, 14, "SparDL(R-SAG,d=2)"},
		{Options{Teams: 7}, 14, "SparDL(B-SAG,d=7)"},
		{Options{Teams: 2, Variant: BSAG}, 14, "SparDL(B-SAG,d=2)"},
		{Options{Residual: PRES}, 14, "SparDL-PRES"},
		{Options{Residual: LRES}, 14, "SparDL-LRES"},
		{Options{Eager: true}, 14, "SparDL-eager"},
		{Options{Wire: WireNegotiated}, 14, "SparDL+negotiated"},
		{Options{Teams: 2, Wire: WireNegotiated}, 14, "SparDL(R-SAG,d=2)+negotiated"},
	}
	for _, tc := range cases {
		r, err := New(tc.p, 0, 1400, 140, tc.opts)
		if err != nil {
			t.Fatalf("%+v: %v", tc.opts, err)
		}
		if r.Name() != tc.want {
			t.Fatalf("Name() = %q, want %q", r.Name(), tc.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(14, 0, 100, 10, Options{Teams: 3}); err == nil {
		t.Fatal("d=3 must not divide P=14")
	}
	if _, err := New(12, 0, 100, 10, Options{Teams: 3, Variant: RSAG}); err == nil {
		t.Fatal("forced R-SAG with d=3 must fail")
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
}

// Property test: random legal configurations keep workers consistent and
// (under GRES) conserve gradient mass.
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
		outs, reds, _ := runSparDL(t, p, n, k, iters, seed, opts)
		assertConsistent(t, outs)
		gap := conservationGap(p, n, iters, seed, outs, reds)
		if math.Abs(gap) > 0.05 {
			t.Fatalf("trial %d (P=%d d=%d n=%d k=%d): conservation gap %g",
				trial, p, d, n, k, gap)
		}
	}
}

func ceilLog2(p int) int {
	l := 0
	for 1<<l < p {
		l++
	}
	return l
}
