package core

import (
	"testing"
)

func TestFitTeamsShrinksToValidDivisor(t *testing.T) {
	cases := []struct {
		opts  Options
		p     int
		wantD int
	}{
		{Options{Teams: 4}, 6, 3},                // 4∤6 → largest divisor ≤ 4
		{Options{Teams: 8}, 3, 3},                // shrink below old d entirely
		{Options{}, 5, 1},                        // default d=1 carries over
		{Options{Teams: 3, Variant: BSAG}, 7, 1}, // prime P → only d=1 fits
		{Options{Teams: 4}, 4, 4},                // unchanged when still valid
	}
	for _, c := range cases {
		fitted := c.opts.FitTeams(c.p)
		if fitted.Teams != c.wantD {
			t.Errorf("FitTeams(%+v, p=%d) = d=%d, want %d", c.opts, c.p, fitted.Teams, c.wantD)
		}
		if err := fitted.Validate(c.p); err != nil {
			t.Errorf("fitted options invalid for p=%d: %v", c.p, err)
		}
	}
}

func TestRestoreResidualRoundTrip(t *testing.T) {
	r, err := New(4, 0, 16, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := make([]float32, 16)
	for i := range snap {
		snap[i] = float32(i) * 0.5
	}
	r.RestoreResidual(snap)
	got := r.Residual()
	for i := range snap {
		if got[i] != snap[i] {
			t.Fatalf("residual[%d] = %v, want %v", i, got[i], snap[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length-mismatched restore must panic")
		}
	}()
	r.RestoreResidual(make([]float32, 3))
}

// TestNewFactoryRefitsAcrossShrink: the one SparDL factory survives an
// elastic shrink — built for P=8 with d=4, it re-fits its teams to every
// smaller worker count it is later invoked with.
func TestNewFactoryRefitsAcrossShrink(t *testing.T) {
	f := NewFactory(Options{Teams: 4})
	for _, tc := range []struct {
		p    int
		want string
	}{
		{8, "SparDL(R-SAG,d=4)"}, // d=4 fits unchanged
		{6, "SparDL(B-SAG,d=3)"}, // 4∤6: re-fits to d=3
		{5, "SparDL"},            // prime P: d=1
	} {
		if got := f(tc.p, 0, 32, 4).Name(); got != tc.want {
			t.Errorf("p=%d: built %q, want %q", tc.p, got, tc.want)
		}
	}
}
