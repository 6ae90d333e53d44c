package stats

import (
	"fmt"
	"math"
	"testing"

	"auric/internal/rng"
)

// TestCountTableMatchesContingency randomizes paired observations —
// including dictionary codes that never occur, the subset-table case the
// effective dimensions exist for — and requires ChiSquare and CramersV to
// agree exactly with the map-based Contingency over the same data.
func TestCountTableMatchesContingency(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		r := rng.New(seed)
		rows, cols := 1+r.Intn(8), 1+r.Intn(6)
		n := r.Intn(400)
		dense := NewCountTable(rows+2, cols+1) // extra never-observed codes
		ct := NewContingency()
		for i := 0; i < n; i++ {
			a, b := r.Intn(rows), r.Intn(cols)
			dense.Add(a, b)
			ct.Add(fmt.Sprint(a), fmt.Sprint(b))
		}
		gotStat, gotDF := dense.ChiSquare()
		wantStat, wantDF := ct.ChiSquare()
		if gotDF != wantDF || math.Abs(gotStat-wantStat) > 1e-9*(1+wantStat) {
			t.Fatalf("seed %d: ChiSquare = (%v, %d), Contingency = (%v, %d)",
				seed, gotStat, gotDF, wantStat, wantDF)
		}
		if gotV, wantV := dense.CramersV(gotStat), ct.CramersV(wantStat); math.Abs(gotV-wantV) > 1e-12 {
			t.Fatalf("seed %d: CramersV = %v, want %v", seed, gotV, wantV)
		}
	}
}

func TestCountTableDegenerate(t *testing.T) {
	empty := NewCountTable(3, 3)
	if stat, df := empty.ChiSquare(); stat != 0 || df != 0 {
		t.Errorf("empty table ChiSquare = (%v, %d)", stat, df)
	}
	if v := empty.CramersV(0); v != 0 {
		t.Errorf("empty table CramersV = %v", v)
	}
	// One observed row: no information about dependence.
	oneRow := NewCountTable(4, 3)
	oneRow.Add(2, 0)
	oneRow.Add(2, 1)
	if stat, df := oneRow.ChiSquare(); stat != 0 || df != 0 {
		t.Errorf("single-row table ChiSquare = (%v, %d)", stat, df)
	}
}

func TestCountTableAccessors(t *testing.T) {
	ct := NewCountTable(2, 3)
	ct.Add(1, 2)
	ct.Add(1, 2)
	ct.Add(0, 1)
	if ct.Count(1, 2) != 2 || ct.Count(0, 1) != 1 || ct.Count(0, 0) != 0 {
		t.Error("Count mismatch")
	}
	if ct.total != 3 {
		t.Errorf("total = %d", ct.total)
	}
}
