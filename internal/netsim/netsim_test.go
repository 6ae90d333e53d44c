package netsim

import (
	"testing"

	"auric/internal/lte"
	"auric/internal/paramspec"
)

func tinyOptions() Options {
	return Options{
		Seed:             7,
		Markets:          4,
		ENodeBsPerMarket: 24,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(tinyOptions())
	b := Generate(tinyOptions())
	if len(a.Net.Carriers) != len(b.Net.Carriers) {
		t.Fatal("carrier counts differ between identical seeds")
	}
	for i := range a.Net.Carriers {
		if a.Net.Carriers[i] != b.Net.Carriers[i] {
			t.Fatalf("carrier %d differs between identical seeds", i)
		}
	}
	schema := a.Schema
	for _, pi := range schema.Singular() {
		for ci := range a.Net.Carriers {
			if a.Current.Get(lte.CarrierID(ci), pi) != b.Current.Get(lte.CarrierID(ci), pi) {
				t.Fatalf("config differs between identical seeds (carrier %d param %d)", ci, pi)
			}
		}
	}
	c := Generate(Options{Seed: 8, Markets: 4, ENodeBsPerMarket: 24})
	diff := 0
	for _, pi := range schema.Singular() {
		for ci := 0; ci < min(len(a.Net.Carriers), len(c.Net.Carriers)); ci++ {
			if a.Current.Get(lte.CarrierID(ci), pi) != c.Current.Get(lte.CarrierID(ci), pi) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical configurations")
	}
}

func TestGeneratedNetworkValid(t *testing.T) {
	w := Generate(tinyOptions())
	if err := w.Net.Validate(); err != nil {
		t.Fatalf("generated network invalid: %v", err)
	}
	if got := len(w.Net.Markets); got != 4 {
		t.Errorf("markets = %d, want 4", got)
	}
	if got := len(w.Net.ENodeBs); got != 4*24 {
		t.Errorf("eNodeBs = %d, want %d", got, 4*24)
	}
	if len(w.Net.Carriers) < 4*24*3 {
		t.Errorf("carriers = %d, want at least 3/eNodeB", len(w.Net.Carriers))
	}
	if len(w.ENodeBCluster) != len(w.Net.ENodeBs) {
		t.Error("cluster assignment length mismatch")
	}
}

func TestCarrierAttributesPlausible(t *testing.T) {
	w := Generate(tinyOptions())
	validFreqs := map[int]bool{700: true, 850: true, 1700: true, 1900: true, 2100: true, 2300: true}
	for i := range w.Net.Carriers {
		c := &w.Net.Carriers[i]
		if !validFreqs[c.FrequencyMHz] {
			t.Fatalf("carrier %d has frequency %d", i, c.FrequencyMHz)
		}
		if c.BandwidthMHz < 5 || c.BandwidthMHz > 20 {
			t.Fatalf("carrier %d bandwidth %d", i, c.BandwidthMHz)
		}
		if c.CellSizeMi < 1 || c.CellSizeMi > 10 {
			t.Fatalf("carrier %d cell size %d", i, c.CellSizeMi)
		}
		if c.Vendor == "" || c.Hardware == "" || c.SoftwareVersion == "" {
			t.Fatalf("carrier %d missing attribute strings", i)
		}
		if c.NeighborsOnENB != len(w.Net.ENodeBs[c.ENodeB].Carriers)-1 {
			t.Fatalf("carrier %d neighbor count attribute wrong", i)
		}
	}
	// FirstNet carriers exist and live on 700 MHz.
	firstnet := 0
	for i := range w.Net.Carriers {
		if w.Net.Carriers[i].Type == lte.FirstNet {
			firstnet++
			if w.Net.Carriers[i].FrequencyMHz != 700 {
				t.Error("FirstNet carrier off 700 MHz")
			}
		}
	}
	if firstnet == 0 {
		t.Error("no FirstNet carriers generated")
	}
}

func TestConfigValuesOnGrid(t *testing.T) {
	w := Generate(tinyOptions())
	for _, pi := range w.Schema.Singular() {
		p := w.Schema.At(pi)
		for ci := range w.Net.Carriers {
			if v := w.Current.Get(lte.CarrierID(ci), pi); !p.Valid(v) {
				t.Fatalf("current %s on carrier %d = %v off-grid", p.Name, ci, v)
			}
			if v := w.Optimal.Get(lte.CarrierID(ci), pi); !p.Valid(v) {
				t.Fatalf("optimal %s on carrier %d = %v off-grid", p.Name, ci, v)
			}
		}
	}
}

func TestPairwiseValuesCoverX2Edges(t *testing.T) {
	w := Generate(tinyOptions())
	pi := w.Schema.PairWise()[0]
	covered, missing := 0, 0
	for ci := range w.Net.Carriers {
		for _, nb := range w.X2.CarrierNeighbors(lte.CarrierID(ci)) {
			if _, ok := w.Current.GetPair(lte.CarrierID(ci), nb, pi); ok {
				covered++
			} else {
				missing++
			}
		}
	}
	if missing > 0 {
		t.Errorf("%d X2 relations missing pair-wise values (%d covered)", missing, covered)
	}
	if covered == 0 {
		t.Fatal("no pair-wise values generated")
	}
}

func TestStaleTrialsRecorded(t *testing.T) {
	w := Generate(tinyOptions())
	stale, mismatchWithoutCause := 0, 0
	for _, pi := range w.Schema.Singular() {
		for ci := range w.Net.Carriers {
			id := lte.CarrierID(ci)
			cur, opt := w.Current.Get(id, pi), w.Optimal.Get(id, pi)
			cause := w.CauseOf(id, pi)
			if cur != opt {
				if cause != CauseStaleTrial {
					mismatchWithoutCause++
				} else {
					stale++
				}
			} else if cause == CauseStaleTrial {
				t.Fatalf("stale-trial cause on matching value (carrier %d param %d)", ci, pi)
			}
		}
	}
	if stale == 0 {
		t.Error("no stale trials generated")
	}
	if mismatchWithoutCause > 0 {
		t.Errorf("%d current!=optimal sites lack a stale-trial cause", mismatchWithoutCause)
	}
	// Stale rate should be near the configured 1.2%.
	total := len(w.Schema.Singular()) * len(w.Net.Carriers)
	rate := float64(stale) / float64(total)
	if rate < 0.004 || rate > 0.03 {
		t.Errorf("stale trial rate = %v, want ~0.012", rate)
	}
}

func TestCausesPresent(t *testing.T) {
	w := Generate(tinyOptions())
	counts := map[Cause]int{}
	for _, c := range w.Causes {
		counts[c]++
	}
	for _, c := range []Cause{CauseStaleTrial, CauseHiddenTerrain} {
		if counts[c] == 0 {
			t.Errorf("no %v causes generated", c)
		}
	}
	if counts[CauseNormal] != 0 {
		t.Error("CauseNormal should not be stored explicitly")
	}
}

func TestVariabilityAndSkewStructure(t *testing.T) {
	// The generated network must reproduce the paper's Sec 2.6 structure:
	// several parameters with >10 distinct values and a majority of
	// parameters with skewed per-market distributions.
	w := Generate(Options{Seed: 3, Markets: 8, ENodeBsPerMarket: 30})
	over10 := 0
	for _, pi := range w.Schema.Singular() {
		distinct := make(map[float64]bool)
		for ci := range w.Net.Carriers {
			distinct[w.Current.Get(lte.CarrierID(ci), pi)] = true
		}
		if len(distinct) > 10 {
			over10++
		}
	}
	if over10 < 5 {
		t.Errorf("only %d singular parameters exceed 10 distinct values", over10)
	}
}

func TestTrueDependenciesStable(t *testing.T) {
	w := Generate(tinyOptions())
	for i := 0; i < w.Schema.Len(); i++ {
		d1 := w.TrueDependencies(i)
		d2 := w.TrueDependencies(i)
		if len(d1) == 0 || len(d1) > 3 {
			t.Fatalf("param %d has %d dependencies, want 1..3", i, len(d1))
		}
		for j := range d1 {
			if d1[j] != d2[j] {
				t.Fatalf("param %d dependencies unstable", i)
			}
		}
		p := w.Schema.At(i)
		for _, d := range d1 {
			limit := int(lte.NumAttributes)
			if p.Kind == paramspec.PairWise {
				limit = 2 * int(lte.NumAttributes)
			}
			if d < 0 || d >= limit {
				t.Fatalf("param %d dependency column %d out of range", i, d)
			}
		}
	}
}

func TestCauseStringAndKinds(t *testing.T) {
	if CauseStaleTrial.String() != "stale-trial" || CauseNormal.String() != "normal" {
		t.Error("Cause.String mismatch")
	}
	if Cause(99).String() == "normal" {
		t.Error("invalid cause stringified as normal")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
