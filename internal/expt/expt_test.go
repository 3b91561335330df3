package expt

import (
	"fmt"
	"strings"
	"testing"

	"spardl/internal/core"
	"spardl/internal/sparsecoll"
	"spardl/internal/train"
	"spardl/internal/wire"
)

func coreOptions() core.Options { return core.Options{} }

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12a", "fig12b",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"ablation-lazy", "ablation-sga", "ablation-allgather", "ablation-dense",
		"ext-pipeline", "ext-wire", "ext-wire-e2e",
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
	const p = 8
	c := train.CaseByID(1)
	n := modelN(c)
	k := n / 100
	rep := costProbe(c, p, k, 1, NamedFactory{"SparDL", sparDL(coreOptions())})
	rounds, elems := rep.MaxRounds(), rep.MaxBytesRecv()/4
	if rounds != 6 { // 2·log₂8
		t.Fatalf("rounds = %d, want 6", rounds)
	}
	s, err := core.New(p, 0, n, k, coreOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 4k(P−1)/P at the k SparDL really sends: a COO entry is 2 elements.
	want := int64(4 * s.EffectiveK() * (p - 1) / p)
	if elems != want {
		t.Fatalf("elems = %d, want %d (n=%d, k=%d, EffectiveK=%d)", elems, want, n, k, s.EffectiveK())
	}
}

// Smoke-run the cheap experiments end to end; the expensive convergence
// experiments are exercised by the benchmark suite instead.
func TestQuickExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	for _, id := range []string{"table1", "fig10", "fig18", "ablation-sga", "ablation-allgather", "ablation-dense"} {
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
// cluster-wide received volume on a model gradient must be strictly lower
// than the COO accounting.
func TestWireE2ENegotiatedBeatsCOO(t *testing.T) {
	// At 1e-3 the per-block chunks hold only a few entries each, where a
	// message's 1-byte format tag and uvarint counts eat into the varint
	// savings (the sweep table reports this regime honestly).
	const p = 14
	c := train.CaseByID(2)
	n := modelN(c)
	for _, ratio := range []float64{1e-2, 1e-3} {
		k := int(ratio * float64(n))
		coo := costProbe(c, p, k, 5, NamedFactory{"SparDL", sparDL(core.Options{})}).TotalBytesRecv()
		neg := costProbe(c, p, k, 5, NamedFactory{"SparDL", sparsecoll.Tuned(sparDL(core.Options{}), wire.ModeNegotiated)}).TotalBytesRecv()
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

// Every row's rounds and volume sit inside Table I's envelope except
// Ok-Topk's volume, which lands above 6(P−1)k/P on case 1's gradient at all
// three P: the overshoot the SparDL paper warns of. That is pinned as
// measured, so a change that moves the row back inside fails here too.
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
		want := "inside"
		if row[0] == "OkTopk" {
			want = "elems above"
		}
		if got := row[len(row)-1]; got != want {
			t.Errorf("Table I envelope: %s, want %s: %v", got, want, row)
		}
	}
}
