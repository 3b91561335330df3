package expt

import (
	"fmt"
	"strings"
	"testing"

	"spardl/internal/core"
	"spardl/internal/simnet"
	"spardl/internal/train"
)

func coreOptions() core.Options { return core.Options{} }

func unitProfile() simnet.Profile { return simnet.Profile{Name: "unit", Alpha: 1e-4, Beta: 1e-8} }

// caseForTest is a tiny synthetic case: timing mode only reads PaperParams
// and ComputeTime.
func caseForTest() *train.Case {
	return &train.Case{ID: 99, Name: "test", PaperParams: 400_000, ComputeTime: 0.01, BatchSize: 8, ItersPerEpoch: 4}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12a", "fig12b",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"ablation-lazy", "ablation-sga", "ablation-allgather", "ablation-dense",
		"ext-hetero", "ext-pipeline", "ext-wire", "ext-wire-e2e",
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Fatalf("experiment %q not registered: %v", id, err)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"a", "long-column"}}
	tab.AddRow(1, 0.123456)
	tab.AddRow("xyz", 4.0)
	tab.Notes = append(tab.Notes, "hello")
	out := tab.Render()
	for _, want := range []string{"== t ==", "long-column", "0.1235", "xyz", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSGAGrowthShowsDilemma(t *testing.T) {
	plain := sgaGrowth(16, 1<<14, 1<<14/100, false)
	kept := sgaGrowth(16, 1<<14, 1<<14/100, true)
	if len(plain) != 4 || len(kept) != 4 {
		t.Fatalf("want 4 steps, got %d/%d", len(plain), len(kept))
	}
	// The SGA signature in recursive halving: with block top-k maintenance
	// message sizes halve with the shrinking window; without it the summed
	// sets keep ~k/2 entries per step — the non-zero density doubles every
	// step, heading toward dense.
	if plain[len(plain)-1] < plain[0]*3/4 {
		t.Fatalf("unmaintained messages should stay ≈k/2 per step: %v", plain)
	}
	if kept[len(kept)-1] > kept[0]/4 {
		t.Fatalf("maintained sizes should shrink with the window: %v", kept)
	}
	if plain[len(plain)-1] < 4*kept[len(kept)-1] {
		t.Fatalf("expected ≥4x density separation at the last step, got plain=%v kept=%v", plain, kept)
	}
}

func TestCostProbeSparDL(t *testing.T) {
	rounds, elems := costProbe(8, 8000, 80, NamedFactory{"SparDL", sparDL(coreOptions())})
	if rounds != 6 { // 2·log₂8
		t.Fatalf("rounds = %d, want 6", rounds)
	}
	want := int64(4 * 80 * 7 / 8)
	if elems != want {
		t.Fatalf("elems = %d, want %d", elems, want)
	}
}

func TestMeasureTimingBasics(t *testing.T) {
	cfg := TimingConfig{
		Case: caseForTest(), P: 4, KRatio: 1e-2, Network: unitProfile(),
		Iters: 3, Warmup: 1, Seed: 1,
	}
	r := MeasureTiming(cfg, NamedFactory{"SparDL", sparDL(coreOptions())}, 2)
	if r.Method != "SparDL" {
		t.Fatalf("method %q", r.Method)
	}
	if r.PerUpdate <= 0 || r.Comm <= 0 || r.Comp < cfg.Case.ComputeTime {
		t.Fatalf("bad timing result: %+v", r)
	}
	if len(r.PerEpoch) != 2 {
		t.Fatalf("want 2 epochs, got %d", len(r.PerEpoch))
	}
}

// Smoke-run the cheap experiments end to end; the expensive convergence
// experiments are exercised by the benchmark suite instead.
func TestQuickExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	for _, id := range []string{"table1", "ablation-sga", "ablation-allgather", "ablation-dense"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables := e.Run(Quick)
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		for _, tab := range tables {
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced empty table %q", id, tab.Title)
			}
			if out := tab.Render(); len(out) == 0 {
				t.Fatalf("%s rendered empty output", id)
			}
		}
	}
}

// Acceptance check for the negotiated accounting: at k/n ≤ 1e-2 SparDL's
// cluster-wide received volume must be strictly lower than the COO
// accounting.
func TestWireE2ENegotiatedBeatsCOO(t *testing.T) {
	// At 1e-3 the per-block chunks need a realistic n: below a handful of
	// entries per message the 13-byte self-describing header outweighs the
	// varint savings (the sweep table reports this regime honestly).
	const p = 14
	for _, tc := range []struct {
		n     int
		ratio float64
	}{{1 << 15, 1e-2}, {1 << 17, 1e-3}} {
		n, ratio := tc.n, tc.ratio
		k := int(ratio * float64(n))
		_, coo := wireE2EProbe(p, n, k, NamedFactory{"SparDL", sparDL(core.Options{})})
		_, neg := wireE2EProbe(p, n, k, NamedFactory{"SparDL", sparDL(core.Options{Wire: core.WireNegotiated})})
		if neg >= coo {
			t.Fatalf("k/n=%g: negotiated %d not below COO %d", ratio, neg, coo)
		}
	}
}

// Acceptance check for the bucketed pipeline extension: on Ethernet at
// k/n=1e-2 the per-layer schedule must report at least 25% less exposed
// communication than the monolithic baseline.
func TestPipelineExperimentCutsExposedComm(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline experiment")
	}
	e, err := ByID("ext-pipeline")
	if err != nil {
		t.Fatal(err)
	}
	tables := e.Run(Quick)
	if len(tables) != 4 {
		t.Fatalf("want 4 tables (2 networks × 2 ratios), got %d", len(tables))
	}
	checked := false
	for _, tab := range tables {
		if !strings.Contains(tab.Title, "Ethernet") || !strings.Contains(tab.Title, "1e-02") {
			continue
		}
		var mono, perLayer float64
		for _, row := range tab.Rows {
			var exposed float64
			if _, err := fmt.Sscanf(row[3], "%g", &exposed); err != nil {
				t.Fatalf("bad exposed cell %q: %v", row[3], err)
			}
			switch row[0] {
			case "monolithic":
				mono = exposed
			case "per-layer":
				perLayer = exposed
			}
		}
		if mono <= 0 || perLayer <= 0 {
			t.Fatalf("missing schedules in table %q", tab.Title)
		}
		if perLayer > 0.75*mono {
			t.Fatalf("per-layer exposed %.6f not ≥25%% below monolithic %.6f", perLayer, mono)
		}
		checked = true
	}
	if !checked {
		t.Fatal("Ethernet k/n=1e-2 table not found")
	}
}

func TestTable1AllWithinEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 verification")
	}
	e, err := ByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	tab := e.Run(Quick)[0]
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("cost outside Table I envelope: %v", row)
		}
	}
}
