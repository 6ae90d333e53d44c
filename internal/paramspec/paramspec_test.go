package paramspec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultSchemaShape(t *testing.T) {
	s := Default()
	if got := s.Len(); got != 65 {
		t.Fatalf("Default schema has %d parameters, want 65", got)
	}
	if got := len(s.Singular()); got != 39 {
		t.Errorf("singular parameters = %d, want 39", got)
	}
	if got := len(s.PairWise()); got != 26 {
		t.Errorf("pair-wise parameters = %d, want 26", got)
	}
}

func TestDefaultSchemaNamedParams(t *testing.T) {
	s := Default()
	tests := []struct {
		name     string
		min, max float64
		step     float64
		kind     Kind
	}{
		// Ranges straight from Sec 2.2 of the paper.
		{"sFreqPrio", 1, 10000, 1, Singular},
		{"hysA3Offset", 0, 15, 0.5, PairWise},
		{"pMax", 0, 60, 0.6, Singular},
		{"qRxLevMin", -156, -44, 2, Singular},
		{"inactivityTimer", 1, 65535, 1, Singular},
		{"capacityThreshold", 0, 100, 1, Singular},
	}
	for _, tc := range tests {
		i := s.IndexOf(tc.name)
		if i < 0 {
			t.Errorf("parameter %s missing from default schema", tc.name)
			continue
		}
		p := s.At(i)
		if p.Min != tc.min || p.Max != tc.max || p.Step != tc.step {
			t.Errorf("%s range = [%v,%v] step %v, want [%v,%v] step %v",
				tc.name, p.Min, p.Max, p.Step, tc.min, tc.max, tc.step)
		}
		if p.Kind != tc.kind {
			t.Errorf("%s kind = %v, want %v", tc.name, p.Kind, tc.kind)
		}
	}
}

func TestLevels(t *testing.T) {
	tests := []struct {
		p    Param
		want int
	}{
		{Param{Name: "a", Min: 0, Max: 15, Step: 0.5}, 31},
		{Param{Name: "b", Min: 1, Max: 10000, Step: 1}, 10000},
		{Param{Name: "c", Min: 0, Max: 100, Step: 1}, 101},
		{Param{Name: "d", Min: 0, Max: 60, Step: 0.6}, 101},
		{Param{Name: "e", Min: -156, Max: -44, Step: 2}, 57},
		{Param{Name: "f", Min: 0, Max: 1, Step: 0.1}, 11},
	}
	for _, tc := range tests {
		if got := tc.p.Levels(); got != tc.want {
			t.Errorf("%s.Levels() = %d, want %d", tc.p.Name, got, tc.want)
		}
	}
}

func TestQuantizeClamps(t *testing.T) {
	p := Param{Name: "x", Min: 0, Max: 15, Step: 0.5}
	if got := p.Quantize(-3); got != 0 {
		t.Errorf("Quantize(-3) = %v, want 0", got)
	}
	if got := p.Quantize(99); got != 15 {
		t.Errorf("Quantize(99) = %v, want 15", got)
	}
	if got := p.Quantize(7.3); got != 7.5 {
		t.Errorf("Quantize(7.3) = %v, want 7.5", got)
	}
	if got := p.Quantize(7.2); got != 7.0 {
		t.Errorf("Quantize(7.2) = %v, want 7.0", got)
	}
}

func TestQuantizeIsIdempotentAndValid(t *testing.T) {
	s := Default()
	for i := 0; i < s.Len(); i++ {
		p := s.At(i)
		f := func(raw float64) bool {
			if math.IsNaN(raw) || math.IsInf(raw, 0) {
				return true
			}
			// Map arbitrary floats into a window around the range.
			v := p.Min + math.Mod(math.Abs(raw), p.Max-p.Min+2)
			q := p.Quantize(v)
			return p.Valid(q) && p.Quantize(q) == q
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: quantize property failed: %v", p.Name, err)
		}
	}
}

func TestIndexValueRoundTrip(t *testing.T) {
	s := Default()
	for i := 0; i < s.Len(); i++ {
		p := s.At(i)
		n := p.Levels()
		if n > 500 {
			n = 500 // sample the head of very large grids (sFreqPrio etc.)
		}
		for i := 0; i < n; i++ {
			v := p.ValueAt(i)
			if !p.Valid(v) {
				t.Fatalf("%s: ValueAt(%d)=%v not valid", p.Name, i, v)
			}
			if got := p.Index(v); got != i {
				t.Fatalf("%s: Index(ValueAt(%d)) = %d", p.Name, i, got)
			}
		}
	}
}

func TestFormatStable(t *testing.T) {
	p := Param{Name: "x", Min: 0, Max: 15, Step: 0.5}
	if got := p.Format(7.5); got != "7.5" {
		t.Errorf("Format(7.5) = %q, want \"7.5\"", got)
	}
	q := Param{Name: "y", Min: 1, Max: 100, Step: 1}
	if got := q.Format(42); got != "42" {
		t.Errorf("Format(42) = %q, want \"42\"", got)
	}
	// Equal grid values must format identically regardless of tiny float noise.
	if p.Format(7.4999999) != p.Format(7.5000001) {
		t.Error("Format is not stable under float noise around a grid point")
	}
}

func TestValueAtClamps(t *testing.T) {
	p := Param{Name: "x", Min: 0, Max: 10, Step: 1}
	if got := p.ValueAt(-5); got != 0 {
		t.Errorf("ValueAt(-5) = %v, want 0", got)
	}
	if got := p.ValueAt(99); got != 10 {
		t.Errorf("ValueAt(99) = %v, want 10", got)
	}
}

func TestIndexPanicsOnInvalid(t *testing.T) {
	p := Param{Name: "x", Min: 0, Max: 10, Step: 1}
	defer func() {
		if recover() == nil {
			t.Error("Index(0.5) did not panic for off-grid value")
		}
	}()
	p.Index(0.5)
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSchema did not panic on duplicate names")
		}
	}()
	NewSchema([]Param{
		{Name: "dup", Min: 0, Max: 1, Step: 1},
		{Name: "dup", Min: 0, Max: 1, Step: 1},
	})
}

func TestSchemaLookup(t *testing.T) {
	s := Default()
	if got := s.IndexOf("noSuchParameter"); got != -1 {
		t.Errorf("IndexOf(missing) = %d, want -1", got)
	}
	i := s.IndexOf("pMax")
	if i < 0 || s.At(i).Name != "pMax" {
		t.Errorf("IndexOf/At round trip failed for pMax (i=%d)", i)
	}
}

func TestCategoryString(t *testing.T) {
	if Mobility.String() != "mobility" {
		t.Errorf("Mobility.String() = %q", Mobility.String())
	}
	if Category(99).String() == "mobility" {
		t.Error("out-of-range category stringified as a valid name")
	}
	if Singular.String() != "singular" || PairWise.String() != "pairwise" {
		t.Error("Kind.String() mismatch")
	}
}
