package expt

import (
	"strconv"
	"testing"
)

// The claims below are the paper's, as each experiment's Paper field words
// them, evaluated on the experiment's Quick-scale table. Each test pins
// whether the claim reproduces there today, reproduced or not: a change
// that flips a verdict fails here and must re-pin it on purpose. Every
// option these experiments set (Variant: BSAG at a power-of-two d,
// Residual, Eager) is kept because one of these claims rests on it.

// pinClaim fails when a claim's verdict differs from the pinned one.
func pinClaim(t *testing.T, claim string, reproduced, pinned bool) {
	t.Helper()
	if reproduced != pinned {
		t.Errorf("%q: reproduced = %v at Quick scale, pinned %v", claim, reproduced, pinned)
	}
}

// quickTables runs one experiment at Quick scale.
func quickTables(t *testing.T, id string) []*Table {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment claim")
	}
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(Quick)
}

// cell returns the number in the row whose first cell is row, under the
// column named col.
func cell(t *testing.T, tab *Table, row, col string) float64 {
	t.Helper()
	for j, c := range tab.Columns {
		if c != col {
			continue
		}
		for _, r := range tab.Rows {
			if r[0] == row {
				v, err := strconv.ParseFloat(r[j], 64)
				if err != nil {
					t.Fatalf("%s: %s/%s: %v", tab.Title, row, col, err)
				}
				return v
			}
		}
	}
	t.Fatalf("%s: no cell %s/%s", tab.Title, row, col)
	return 0
}

func TestClaimFig8SparDLLowestComm(t *testing.T) {
	tables := quickTables(t, "fig8")
	if len(tables) != 4 {
		t.Fatalf("want 4 cases, got %d tables", len(tables))
	}
	lowest := true
	for _, tab := range tables {
		if base := tab.Rows[len(tab.Rows)-1][0]; base != "SparDL" {
			t.Errorf("%s: the speedup column's base is %s, not SparDL", tab.Title, base)
		}
		spardl := cell(t, tab, "SparDL", "comm(s)")
		for _, r := range tab.Rows {
			if r[0] != "SparDL" && cell(t, tab, r[0], "comm(s)") <= spardl {
				t.Logf("%s: %s comm %s ≤ SparDL's", tab.Title, r[0], r[1])
				lowest = false
			}
		}
	}
	pinClaim(t, "SparDL has the lowest communication time in all four cases", lowest, true)
}

// Fig. 14 at P = 12 is what keeps Variant: BSAG settable at a power-of-two
// d: B4 is B-SAG forced where Auto would run R-SAG. Trained on case 1's
// model, B3 takes 2.467 s per epoch and B4 2.442 s, and B12 is fastest:
// per-epoch time still falls with d, so the claim stays unreproduced.
func TestClaimFig14BSAGd4SlowerThand3(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment claim")
	}
	tab := dImpactTable(Quick, 12)
	b3, b4 := cell(t, tab, "B3", "per-epoch(s)"), cell(t, tab, "B4", "per-epoch(s)")
	t.Logf("per epoch: B3 %.3fs, B4 %.3fs", b3, b4)
	pinClaim(t, "P=12: B-SAG d=4 slower than d=3", b4 > b3, false)
}

func TestClaimFig17GRESConvergesBest(t *testing.T) {
	tables := quickTables(t, "fig17")
	if len(tables) != 4 {
		t.Fatalf("want 4 configurations, got %d tables", len(tables))
	}
	best, cells, lowest := true, 0, 0
	for _, tab := range tables {
		for _, col := range tab.Columns[1:] {
			gres := cell(t, tab, "GRES", col)
			pres, lres := cell(t, tab, "PRES", col), cell(t, tab, "LRES", col)
			cells++
			if gres < pres || gres < lres {
				best = false
			}
			if gres < pres && gres < lres {
				lowest++
			}
		}
	}
	t.Logf("GRES strictly lowest in %d of %d epoch cells", lowest, cells)
	pinClaim(t, "GRES converges to the best accuracy per epoch", best, false)
}

func TestClaimAblationLazyDiscardsLess(t *testing.T) {
	tables := quickTables(t, "ablation-lazy")
	timing, conv := tables[0], tables[1]
	lazy, eager := cell(t, conv, "lazy", "final-acc"), cell(t, conv, "eager", "final-acc")
	t.Logf("final accuracy: lazy %.4f, eager %.4f", lazy, eager)
	pinClaim(t, "lazy sparsification converges further in equal iterations", lazy > eager, true)
	// The paper's direction: deferring sparsification costs no time.
	for _, col := range timing.Columns[1:] {
		l, e := cell(t, timing, "SparDL (lazy, paper)", col), cell(t, timing, "SparDL-eager (ablation)", col)
		t.Logf("%s: lazy %g, eager %g", col, l, e)
		if l > e {
			t.Errorf("%s: lazy %g above eager %g", col, l, e)
		}
	}
}
