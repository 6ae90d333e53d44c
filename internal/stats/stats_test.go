package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if Mean(nil) != 0 {
		t.Error("empty input should yield 0")
	}
}

func TestSkewness(t *testing.T) {
	// Symmetric data has zero skew.
	if s := Skewness([]float64{1, 2, 3, 4, 5}); !almost(s, 0, 1e-12) {
		t.Errorf("symmetric skew = %v, want 0", s)
	}
	// A long right tail yields positive skew; left tail negative.
	right := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 100}
	if s := Skewness(right); s <= 1 {
		t.Errorf("right-tailed skew = %v, want > 1", s)
	}
	left := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 1}
	if s := Skewness(left); s >= -1 {
		t.Errorf("left-tailed skew = %v, want < -1", s)
	}
	if Skewness([]float64{5, 5, 5}) != 0 {
		t.Error("constant data should have 0 skew")
	}
}

func TestSkewnessShiftInvariant(t *testing.T) {
	f := func(seedVals [8]float64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		shift = math.Mod(shift, 1000)
		xs := make([]float64, 0, 8)
		shifted := make([]float64, 0, 8)
		for _, v := range seedVals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			v = math.Mod(v, 100)
			xs = append(xs, v)
			shifted = append(shifted, v+shift)
		}
		a, b := Skewness(xs), Skewness(shifted)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return almost(a, b, 1e-6*(1+math.Abs(a)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClassifySkew(t *testing.T) {
	tests := []struct {
		s    float64
		want SkewClass
	}{
		{0, Symmetric}, {0.4, Symmetric}, {-0.5, Symmetric},
		{0.7, ModeratelySkewed}, {-0.9, ModeratelySkewed}, {1.0, ModeratelySkewed},
		{1.01, HighlySkewed}, {-3, HighlySkewed},
	}
	for _, tc := range tests {
		if got := ClassifySkew(tc.s); got != tc.want {
			t.Errorf("ClassifySkew(%v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestChiSquareCDFReferenceValues(t *testing.T) {
	// Reference values from standard chi-square tables.
	tests := []struct {
		x    float64
		df   int
		want float64 // CDF, checked as 1 - SF
	}{
		{3.841, 1, 0.95},
		{5.991, 2, 0.95},
		{6.635, 1, 0.99},
		{9.210, 2, 0.99},
		{16.919, 9, 0.95},
		{21.666, 9, 0.99},
		{11.070, 5, 0.95},
	}
	for _, tc := range tests {
		got := 1 - ChiSquareSF(tc.x, tc.df)
		if !almost(got, tc.want, 5e-4) {
			t.Errorf("1 - ChiSquareSF(%v, %d) = %v, want %v", tc.x, tc.df, got, tc.want)
		}
	}
}

func TestChiSquareCritical(t *testing.T) {
	tests := []struct {
		df    int
		alpha float64
		want  float64
	}{
		{1, 0.05, 3.841},
		{2, 0.05, 5.991},
		{1, 0.01, 6.635},
		{2, 0.01, 9.210},
		{9, 0.01, 21.666},
		{10, 0.05, 18.307},
	}
	for _, tc := range tests {
		got := ChiSquareCritical(tc.df, tc.alpha)
		if !almost(got, tc.want, 5e-3) {
			t.Errorf("ChiSquareCritical(%d, %v) = %v, want %v", tc.df, tc.alpha, got, tc.want)
		}
	}
	// Round trip: SF(critical) == alpha.
	for _, df := range []int{1, 3, 7, 20} {
		c := ChiSquareCritical(df, 0.01)
		if !almost(ChiSquareSF(c, df), 0.01, 1e-8) {
			t.Errorf("SF(critical(df=%d)) = %v, want 0.01", df, ChiSquareSF(c, df))
		}
	}
}

func TestContingencyCounts(t *testing.T) {
	ct := NewContingency()
	ct.Add("urban", "20")
	ct.Add("urban", "20")
	ct.Add("rural", "100")
	ct.AddN("suburban", "40", 3)
	if ct.Total() != 6 {
		t.Errorf("Total = %d, want 6", ct.Total())
	}
	if ct.Count("urban", "20") != 2 || ct.Count("suburban", "40") != 3 {
		t.Error("cell counts wrong")
	}
	if ct.Count("urban", "999") != 0 || ct.Count("nope", "20") != 0 {
		t.Error("missing labels should count 0")
	}
	if len(ct.Rows()) != 3 || len(ct.Cols()) != 3 {
		t.Errorf("Rows/Cols = %d/%d, want 3/3", len(ct.Rows()), len(ct.Cols()))
	}
}

func TestChiSquareIndependentTable(t *testing.T) {
	// Perfectly proportional table: statistic must be ~0.
	ct := NewContingency()
	ct.AddN("a", "x", 10)
	ct.AddN("a", "y", 20)
	ct.AddN("b", "x", 30)
	ct.AddN("b", "y", 60)
	stat, df := ct.ChiSquare()
	if df != 1 {
		t.Fatalf("df = %d, want 1", df)
	}
	if !almost(stat, 0, 1e-9) {
		t.Errorf("independent table stat = %v, want 0", stat)
	}
	if stat > ChiSquareCritical(df, 0.01) {
		t.Error("independent table flagged dependent")
	}
}

func TestChiSquareDependentTable(t *testing.T) {
	// Perfect association: every attribute value determines the parameter.
	ct := NewContingency()
	ct.AddN("urban", "20", 50)
	ct.AddN("suburban", "40", 50)
	ct.AddN("rural", "100", 50)
	stat, df := ct.ChiSquare()
	if df != 4 {
		t.Fatalf("df = %d, want 4", df)
	}
	if stat < 250 { // perfect association of 150 samples over 3x3 => 2*N = 300
		t.Errorf("dependent table stat = %v, want large", stat)
	}
	if stat <= ChiSquareCritical(df, 0.01) {
		t.Error("perfectly dependent table not flagged at alpha=0.01")
	}
	if p := ChiSquareSF(stat, df); p > 1e-10 {
		t.Errorf("p-value = %v, want ~0", p)
	}
}

func TestChiSquareDegenerateTable(t *testing.T) {
	ct := NewContingency()
	ct.AddN("only", "x", 5)
	ct.AddN("only", "y", 5)
	stat, df := ct.ChiSquare()
	if stat != 0 || df != 0 {
		t.Errorf("single-row table: stat=%v df=%d, want 0,0", stat, df)
	}
	if p := ChiSquareSF(stat, df); p != 1 {
		t.Errorf("degenerate p-value = %v, want 1", p)
	}
}

// TestTestIndependence runs the chi-square test of independence of Sec 3.2
// on two parallel label slices: the statistic against the critical value,
// and the p-value from the survival function.
func TestTestIndependence(t *testing.T) {
	test := func(rows, cols []string) (dependent bool, stat, p float64) {
		ct := NewContingency()
		for i := range rows {
			ct.Add(rows[i], cols[i])
		}
		stat, df := ct.ChiSquare()
		if df == 0 {
			return false, stat, 1
		}
		return stat > ChiSquareCritical(df, 0.01), stat, ChiSquareSF(stat, df)
	}
	// Dependent: col mirrors row.
	rows := make([]string, 0, 300)
	cols := make([]string, 0, 300)
	labels := []string{"a", "b", "c"}
	for i := 0; i < 300; i++ {
		l := labels[i%3]
		rows = append(rows, l)
		cols = append(cols, l+"-val")
	}
	dep, stat, p := test(rows, cols)
	if !dep || stat <= 0 || p > 1e-10 {
		t.Errorf("mirrored labels: dep=%v stat=%v p=%v", dep, stat, p)
	}
	// Independent: constant column.
	for i := range cols {
		cols[i] = "same"
	}
	dep, _, p = test(rows, cols)
	if dep || p != 1 {
		t.Errorf("constant column: dep=%v p=%v, want false, 1", dep, p)
	}
}

func TestGammaEdgeCases(t *testing.T) {
	if !math.IsNaN(upperRegGamma(-1, 1)) {
		t.Error("Q(a<=0, x) should be NaN")
	}
	if upperRegGamma(2, 0) != 1 {
		t.Error("Q(a, 0) should be 1")
	}
	// Q stays in (0, 1] and never rises with x, across both regimes
	// (series below x = a+1, continued fraction above).
	for _, a := range []float64{0.5, 1, 2.5, 10} {
		prev := 1.0
		for _, x := range []float64{0.1, 1, 3, 10, 100} {
			q := upperRegGamma(a, x)
			if q <= 0 || q > prev {
				t.Errorf("Q(%v, %v) = %v, not in (0, %v]", a, x, q, prev)
			}
			prev = q
		}
	}
}
