package lte

import (
	"testing"
	"testing/quick"

	"auric/internal/paramspec"
)

// Property: for any (carrier, parameter, raw value), Set followed by Get
// returns the quantized value, which is always valid on the grid; and
// setting one site never disturbs another.
func TestConfigSetGetProperty(t *testing.T) {
	schema := paramspec.Default()
	cfg := NewConfig(schema, 8)
	singular := schema.Singular()

	f := func(carrier uint8, paramSel uint8, raw float64, other uint8) bool {
		id := CarrierID(int(carrier) % 8)
		pi := singular[int(paramSel)%len(singular)]
		p := schema.At(pi)
		if raw != raw || raw > 1e12 || raw < -1e12 { // NaN / extreme
			return true
		}
		otherID := CarrierID(int(other) % 8)
		var before float64
		if otherID != id {
			before = cfg.Get(otherID, pi)
		}
		cfg.Set(id, pi, raw)
		got := cfg.Get(id, pi)
		if !p.Valid(got) || got != p.Quantize(raw) {
			return false
		}
		if otherID != id && cfg.Get(otherID, pi) != before {
			return false // cross-carrier interference
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: pair-wise relations are directed and independent per
// parameter.
func TestConfigPairProperty(t *testing.T) {
	schema := paramspec.Default()
	cfg := NewConfig(schema, 16)
	pair := schema.PairWise()

	f := func(a, b uint8, paramSel uint8, raw float64) bool {
		from := CarrierID(int(a) % 16)
		to := CarrierID(int(b) % 16)
		if from == to {
			return true
		}
		pi := pair[int(paramSel)%len(pair)]
		p := schema.At(pi)
		if raw != raw || raw > 1e12 || raw < -1e12 {
			return true
		}
		// The reverse relation's value (if any) must be untouched.
		revBefore, revSet := cfg.GetPair(to, from, pi)
		cfg.SetPair(from, to, pi, raw)
		got, ok := cfg.GetPair(from, to, pi)
		if !ok || got != p.Quantize(raw) || !p.Valid(got) {
			return false
		}
		revAfter, revSetAfter := cfg.GetPair(to, from, pi)
		return revSet == revSetAfter && (!revSet || revBefore == revAfter)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Grow preserves all existing values and adds rows at the
// parameter minimum.
func TestConfigGrowProperty(t *testing.T) {
	schema := paramspec.Default()
	singular := schema.Singular()
	f := func(vals [6]float64, growBy uint8) bool {
		cfg := NewConfig(schema, 3)
		pi := singular[2]
		for i, v := range vals[:3] {
			if v != v {
				return true
			}
			cfg.Set(CarrierID(i), pi, v)
		}
		before := []float64{cfg.Get(0, pi), cfg.Get(1, pi), cfg.Get(2, pi)}
		n := int(growBy)%5 + 1
		cfg.Grow(n)
		if cfg.NumCarriers() != 3+n {
			return false
		}
		for i, b := range before {
			if cfg.Get(CarrierID(i), pi) != b {
				return false
			}
		}
		for i := 3; i < 3+n; i++ {
			if cfg.Get(CarrierID(i), pi) != schema.At(pi).Min {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refConfig is the reference model of one Config: plain maps, copied whole
// on Clone.
type refConfig struct {
	n    int
	sing map[[2]int]float64          // (carrier, param) -> value; absent = Min
	pair map[EdgeKey]map[int]float64 // relation -> param -> value; absent = Min
}

func (r *refConfig) clone() *refConfig {
	out := &refConfig{n: r.n, sing: make(map[[2]int]float64), pair: make(map[EdgeKey]map[int]float64)}
	for k, v := range r.sing {
		out.sing[k] = v
	}
	for k, row := range r.pair {
		out.pair[k] = make(map[int]float64)
		for pi, v := range row {
			out.pair[k][pi] = v
		}
	}
	return out
}

// Property: any sequence of Set, SetPair, Grow and Clone over a family of
// configs leaves every config holding exactly what its reference model
// holds — Clone's shared rows never let a write reach another copy — and
// Edges lists relations in ascending (From, To) order.
func TestConfigReferenceModel(t *testing.T) {
	schema := paramspec.NewSchema([]paramspec.Param{
		{Name: "s0", Kind: paramspec.Singular, Min: 0, Max: 4, Step: 1},
		{Name: "p0", Kind: paramspec.PairWise, Min: -2, Max: 2, Step: 0.5},
		{Name: "s1", Kind: paramspec.Singular, Min: 10, Max: 20, Step: 2},
		{Name: "p1", Kind: paramspec.PairWise, Min: 0, Max: 3, Step: 1},
	})
	check := func(cfg *Config, ref *refConfig) bool {
		if cfg.NumCarriers() != ref.n || len(cfg.Edges()) != len(ref.pair) {
			return false
		}
		for id := 0; id < ref.n; id++ {
			for _, pi := range schema.Singular() {
				want, ok := ref.sing[[2]int{id, pi}]
				if !ok {
					want = schema.At(pi).Min
				}
				if cfg.Get(CarrierID(id), pi) != want {
					return false
				}
			}
		}
		edges := cfg.Edges()
		for i, e := range edges {
			if i > 0 && (e.From < edges[i-1].From || e.From == edges[i-1].From && e.To <= edges[i-1].To) {
				return false // not in ascending (From, To) order
			}
			row, ok := ref.pair[e]
			if !ok {
				return false
			}
			for _, pi := range schema.PairWise() {
				want, set := row[pi]
				if !set {
					want = schema.At(pi).Min
				}
				if got, ok := cfg.GetPair(e.From, e.To, pi); !ok || got != want {
					return false
				}
			}
		}
		return len(edges) == len(ref.pair)
	}
	f := func(ops []uint32) bool {
		cfgs := []*Config{NewConfig(schema, 4)}
		refs := []*refConfig{{n: 4, sing: map[[2]int]float64{}, pair: map[EdgeKey]map[int]float64{}}}
		for _, op := range ops {
			k := int(op>>8) % len(cfgs)
			cfg, ref := cfgs[k], refs[k]
			a, b := int(op>>16)%ref.n, int(op>>24)%ref.n
			lvl := int(op >> 4 & 0xf)
			switch op % 4 {
			case 0:
				pi := schema.Singular()[lvl%2]
				v := schema.At(pi).ValueAt(lvl % schema.At(pi).Levels())
				cfg.Set(CarrierID(a), pi, v)
				ref.sing[[2]int{a, pi}] = v
			case 1:
				pi := schema.PairWise()[lvl%2]
				v := schema.At(pi).ValueAt(lvl % schema.At(pi).Levels())
				cfg.SetPair(CarrierID(a), CarrierID(b), pi, v)
				e := EdgeKey{CarrierID(a), CarrierID(b)}
				if ref.pair[e] == nil {
					ref.pair[e] = map[int]float64{}
				}
				ref.pair[e][pi] = v
			case 2:
				if ref.n < 12 {
					cfg.Grow(1)
					ref.n++
				}
			case 3:
				if len(cfgs) < 6 {
					cfgs = append(cfgs, cfg.Clone())
					refs = append(refs, ref.clone())
				}
			}
			for i := range cfgs {
				if !check(cfgs[i], refs[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
