// Package paramspec defines the schema of LTE carrier configuration
// parameters used throughout the Auric reproduction.
//
// The paper (Sec 2.6) analyzes 3000+ parameters across a 400K+ carrier LTE
// network and narrows the recommendation problem to the 65 parameters that
// take values within a range (rather than an enumeration) and that network
// engineers tune per location. 26 of the 65 are pair-wise: they are set for
// a (carrier, neighbor) pair and govern user mobility and handovers; the
// remaining 39 are singular, set per carrier.
//
// Each parameter takes discrete values on a grid [Min, Max] with step Step,
// exactly like the examples in the paper (hysA3Offset: 0..15 step 0.5,
// pMax: 0..60 step 0.6, sFreqPrio: 1..10000 step 1, ...). Values are
// treated as categorical labels by the learners; this package provides the
// quantization between the numeric grid and stable label strings.
package paramspec

import (
	"fmt"
	"math"
)

// Kind distinguishes singular parameters (one value per carrier) from
// pair-wise parameters (one value per carrier/neighbor relation).
type Kind int

const (
	// Singular parameters are configured once per carrier.
	Singular Kind = iota
	// PairWise parameters are configured per (carrier, neighbor) pair and
	// are used for user mobility and handovers across carriers (Sec 4.1).
	PairWise
)

// String returns "singular" or "pairwise".
func (k Kind) String() string {
	switch k {
	case Singular:
		return "singular"
	case PairWise:
		return "pairwise"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Category groups parameters by the network function they configure
// (Sec 2.2 of the paper).
type Category int

const (
	RadioConnection Category = iota
	PowerControl
	LinkAdaptation
	Scheduling
	CapacityManagement
	LayerManagement
	Mobility
	InterferenceManagement
	CongestionControl
)

var categoryNames = [...]string{
	RadioConnection:        "radio-connection",
	PowerControl:           "power-control",
	LinkAdaptation:         "link-adaptation",
	Scheduling:             "scheduling",
	CapacityManagement:     "capacity-management",
	LayerManagement:        "layer-management",
	Mobility:               "mobility",
	InterferenceManagement: "interference-management",
	CongestionControl:      "congestion-control",
}

// String returns the kebab-case category name.
func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Param describes one range configuration parameter.
type Param struct {
	// Name is the vendor-style camelCase parameter name, unique within the
	// schema (e.g. "hysA3Offset").
	Name string
	// Kind says whether the parameter is singular or pair-wise.
	Kind Kind
	// Category is the network function the parameter belongs to.
	Category Category
	// Min and Max bound the value range (inclusive).
	Min, Max float64
	// Step is the grid spacing; every valid value is Min + i*Step for some
	// integer i with Min + i*Step <= Max.
	Step float64
	// Unit is a human-readable unit ("dB", "dBm", "ms", ...) or "" when the
	// parameter is a unitless count or priority.
	Unit string
	// Doc is a one-line description used in explanations and reports.
	Doc string
}

// Levels reports the number of valid grid values of p.
func (p Param) Levels() int {
	if p.Step <= 0 {
		return 1
	}
	return int(math.Floor((p.Max-p.Min)/p.Step+1e-9)) + 1
}

// Quantize snaps v to the nearest valid grid value, clamping to [Min, Max].
func (p Param) Quantize(v float64) float64 {
	if v <= p.Min {
		return p.Min
	}
	if v >= p.Max {
		return p.Max
	}
	steps := math.Round((v - p.Min) / p.Step)
	q := p.Min + steps*p.Step
	if q > p.Max {
		q = p.Max
	}
	return q
}

// Valid reports whether v lies on the parameter's grid (within a small
// floating-point tolerance).
func (p Param) Valid(v float64) bool {
	if v < p.Min-1e-9 || v > p.Max+1e-9 {
		return false
	}
	steps := (v - p.Min) / p.Step
	return math.Abs(steps-math.Round(steps)) < 1e-6
}

// Index returns the grid index of value v (0 for Min). It panics if v is
// not a valid grid value; use Valid first for untrusted input.
func (p Param) Index(v float64) int {
	if !p.Valid(v) {
		panic(fmt.Sprintf("paramspec: %v is not a valid value of %s", v, p.Name))
	}
	return int(math.Round((v - p.Min) / p.Step))
}

// ValueAt returns the grid value at index i, clamped to the valid range.
func (p Param) ValueAt(i int) float64 {
	if i < 0 {
		return p.Min
	}
	v := p.Min + float64(i)*p.Step
	if v > p.Max {
		return p.Max
	}
	return v
}

// Format renders a value with the parameter's natural precision, so that
// equal grid values always format identically. The result is the canonical
// categorical label used by the learners.
func (p Param) Format(v float64) string {
	// Derive decimal places from the step size: 0.5 -> 1 place, 0.6 -> 1,
	// 1 -> 0, 0.05 -> 2 ...
	places := 0
	s := p.Step
	for places < 6 && math.Abs(s-math.Round(s)) > 1e-9 {
		s *= 10
		places++
	}
	return fmt.Sprintf("%.*f", places, p.Quantize(v))
}

// Schema is an ordered collection of parameters with name lookup.
type Schema struct {
	params []Param
	byName map[string]int
}

// Validate reports whether params form a usable schema: every parameter
// named, names unique, and each grid finite with Step > 0 and
// Max >= Min. It is the error-returning twin of NewSchema for untrusted
// inputs such as snapshot files — NewSchema panics, which is right for
// the compiled-in default schema and wrong for bytes off a disk. The
// finiteness check matters: NaN compares false against everything, so a
// NaN Step would sail through the Step <= 0 guard and break every grid
// computation downstream.
func Validate(params []Param) error {
	seen := make(map[string]struct{}, len(params))
	for _, p := range params {
		if p.Name == "" {
			return fmt.Errorf("paramspec: parameter with empty name")
		}
		if p.Kind != Singular && p.Kind != PairWise {
			return fmt.Errorf("paramspec: parameter %s has unknown kind %d", p.Name, p.Kind)
		}
		if isNonFinite(p.Min) || isNonFinite(p.Max) || isNonFinite(p.Step) {
			return fmt.Errorf("paramspec: parameter %s has non-finite range [%v,%v] step %v", p.Name, p.Min, p.Max, p.Step)
		}
		if p.Step <= 0 || p.Max < p.Min {
			return fmt.Errorf("paramspec: parameter %s has invalid range [%v,%v] step %v", p.Name, p.Min, p.Max, p.Step)
		}
		if _, dup := seen[p.Name]; dup {
			return fmt.Errorf("paramspec: duplicate parameter %s", p.Name)
		}
		seen[p.Name] = struct{}{}
	}
	return nil
}

func isNonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// NewSchema builds a schema from params. It panics on duplicate names or
// invalid ranges, since schemas are package-level constants in practice;
// untrusted inputs should call Validate first.
func NewSchema(params []Param) *Schema {
	if err := Validate(params); err != nil {
		panic(err.Error())
	}
	s := &Schema{
		params: make([]Param, len(params)),
		byName: make(map[string]int, len(params)),
	}
	copy(s.params, params)
	for i, p := range s.params {
		s.byName[p.Name] = i
	}
	return s
}

// Len reports the number of parameters in the schema.
func (s *Schema) Len() int { return len(s.params) }

// At returns the i-th parameter.
func (s *Schema) At(i int) Param { return s.params[i] }

// IndexOf returns the position of the named parameter, or -1.
func (s *Schema) IndexOf(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// Singular returns the indices of singular parameters, in schema order.
func (s *Schema) Singular() []int { return s.ofKind(Singular) }

// PairWise returns the indices of pair-wise parameters, in schema order.
func (s *Schema) PairWise() []int { return s.ofKind(PairWise) }

func (s *Schema) ofKind(k Kind) []int {
	var out []int
	for i, p := range s.params {
		if p.Kind == k {
			out = append(out, i)
		}
	}
	return out
}
