package lte

// Copy-on-write tests for Config: a Clone shares every carrier's rows with
// its source until one side writes a row, and the write copies that row
// only. These tests pin that writes stay on their side in both directions,
// that untouched rows really are shared (the point of the design), that a
// Clone allocates nothing per row, and, under -race, that readers and
// concurrent Clones of the source never see a clone's writes.

import (
	"slices"
	"sync"
	"testing"

	"auric/internal/paramspec"
)

// filledConfig returns a config over n carriers in which every carrier has
// non-default singular values and relations to its next rel carriers.
func filledConfig(schema *paramspec.Schema, n, rel int) *Config {
	cfg := NewConfig(schema, n)
	for id := 0; id < n; id++ {
		for k, pi := range schema.Singular() {
			p := schema.At(pi)
			cfg.Set(CarrierID(id), pi, p.ValueAt((id+k)%p.Levels()))
		}
		for d := 1; d <= rel; d++ {
			for k, pi := range schema.PairWise() {
				p := schema.At(pi)
				cfg.SetPair(CarrierID(id), CarrierID((id+d)%n), pi, p.ValueAt((id+d+k)%p.Levels()))
			}
		}
	}
	return cfg
}

// configValues flattens every value a config holds, relations in Edges
// order, for whole-config comparison.
func configValues(cfg *Config) []float64 {
	schema := cfg.Schema()
	var out []float64
	for id := 0; id < cfg.NumCarriers(); id++ {
		for _, pi := range schema.Singular() {
			out = append(out, cfg.Get(CarrierID(id), pi))
		}
	}
	for _, e := range cfg.Edges() {
		out = append(out, float64(e.From), float64(e.To))
		for _, pi := range schema.PairWise() {
			v, _ := cfg.GetPair(e.From, e.To, pi)
			out = append(out, v)
		}
	}
	return out
}

// TestConfigCloneIsolation writes to each side of a Clone — a singular Set,
// a SetPair that creates a new relation, a SetPair that rewrites one, and a
// Grow of the clone — and requires the other side to be unchanged.
func TestConfigCloneIsolation(t *testing.T) {
	schema := paramspec.Default()
	is := schema.Singular()[0]
	ip := schema.PairWise()[0]
	for _, writeClone := range []bool{true, false} {
		src := filledConfig(schema, 6, 3)
		cl := src.Clone()
		written, other := cl, src
		if !writeClone {
			written, other = src, cl
		}
		before := configValues(other)
		edges := other.NumEdges()

		written.Set(2, is, schema.At(is).Max)
		written.SetPair(2, 0, ip, schema.At(ip).Max) // new relation (2 relates to 3, 4, 5)
		written.SetPair(4, 5, ip, schema.At(ip).Max) // existing relation
		if writeClone {
			written.Grow(2)
			written.SetPair(6, 0, ip, schema.At(ip).Max)
		}

		if got := configValues(other); !slices.Equal(got, before) {
			t.Fatalf("writeClone=%v: writes leaked into the other copy", writeClone)
		}
		if other.NumEdges() != edges || other.NumCarriers() != 6 {
			t.Fatalf("writeClone=%v: other copy has %d edges / %d carriers, want %d / 6",
				writeClone, other.NumEdges(), other.NumCarriers(), edges)
		}
		if v, _ := written.GetPair(2, 0, ip); v != schema.At(ip).Max {
			t.Fatalf("writeClone=%v: written copy lost its new relation", writeClone)
		}
		if _, ok := other.GetPair(2, 0, ip); ok {
			t.Fatalf("writeClone=%v: new relation visible in the other copy", writeClone)
		}
	}
}

// TestConfigCloneSharesUntouchedRows compares row storage: after a Clone
// and a write to one carrier's singular row and another's relation row, the
// written rows are private to the writer and every other row is still the
// source's memory.
func TestConfigCloneSharesUntouchedRows(t *testing.T) {
	schema := paramspec.Default()
	src := filledConfig(schema, 8, 3)
	cl := src.Clone()
	cl.Set(1, schema.Singular()[0], 0)
	cl.SetPair(2, 3, schema.PairWise()[0], 0)
	src.Set(4, schema.Singular()[0], 0)
	for id := range src.singular {
		shared := &src.singular[id].v[0] == &cl.singular[id].v[0]
		if want := id != 1 && id != 4; shared != want {
			t.Errorf("carrier %d singular row shared=%v, want %v", id, shared, want)
		}
	}
	for id := range src.pair {
		shared := &src.pair[id].v[0] == &cl.pair[id].v[0] && &src.pair[id].to[0] == &cl.pair[id].to[0]
		if want := id != 2; shared != want {
			t.Errorf("carrier %d relation row shared=%v, want %v", id, shared, want)
		}
	}
}

// TestConfigCloneAllocs requires Clone to allocate the same number of times
// whatever the number of carriers and relations: it copies the outer
// per-carrier slices and nothing per row.
func TestConfigCloneAllocs(t *testing.T) {
	schema := paramspec.Default()
	small, large := filledConfig(schema, 4, 3), filledConfig(schema, 400, 9)
	a := testing.AllocsPerRun(20, func() { small.Clone() })
	b := testing.AllocsPerRun(20, func() { large.Clone() })
	if a != b {
		t.Fatalf("Clone allocates %v times over 4 carriers and %v over 400", a, b)
	}
}

// TestConfigCloneConcurrent writes a clone while other goroutines read the
// source and Clone it again. Run under -race it proves the copy-on-write
// discipline: no write to the clone touches memory the source's readers
// and clones see, and their values never change.
func TestConfigCloneConcurrent(t *testing.T) {
	schema := paramspec.Default()
	src := filledConfig(schema, 64, 3)
	want := configValues(src)
	cl := src.Clone()

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := configValues(src)
				if g == 0 { // a second clone, read while the first is written
					got = configValues(src.Clone())
				}
				if !slices.Equal(got, want) {
					errs <- "a reader of the source saw a write to its clone"
					return
				}
			}
		}(g)
	}
	is, ip := schema.Singular()[3], schema.PairWise()[2]
	for i := 0; i < 200; i++ {
		id := CarrierID(i % 64)
		cl.Set(id, is, schema.At(is).Max)
		cl.SetPair(id, CarrierID((i+7)%64), ip, schema.At(ip).Max)
		if i%50 == 0 {
			cl.Grow(1)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// BenchmarkConfigClone measures the per-apply configuration step of live
// ingest at the perfbench world's size (6,500 carriers, 58,500 relations):
// Clone, then one Set and one SetPair, each copying one carrier's row.
func BenchmarkConfigClone(b *testing.B) {
	schema := paramspec.Default()
	cfg := filledConfig(schema, 6500, 9)
	is, ip := schema.Singular()[0], schema.PairWise()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := cfg.Clone()
		cl.Set(CarrierID(i%6500), is, 0)
		cl.SetPair(CarrierID(i%6500), CarrierID((i+1)%6500), ip, 0)
	}
}
