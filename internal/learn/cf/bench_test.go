package cf

// Benchmarks for the CF hot path: Fit (chi-square dependency selection +
// match index construction) and Predict (exact matching, relaxation
// ladder, scoped voting). Two scales: "bench" matches the root bench
// world (~4 markets), "large" approaches the shape of a production
// market set and is skipped with -short so the make-check smoke run
// stays fast. Results are tracked in EXPERIMENTS.md and BENCH_cf.json.

import (
	"sync"
	"testing"

	"auric/internal/dataset"
	"auric/internal/lte"
	"auric/internal/netsim"
)

type benchScale struct {
	name             string
	markets, enodebs int
}

var benchScales = []benchScale{
	{"bench", 4, 30},
	{"large", 8, 90},
}

var (
	benchWorldsMu sync.Mutex
	benchWorlds   = map[string]*netsim.World{}
)

func benchWorld(b *testing.B, s benchScale) *netsim.World {
	b.Helper()
	benchWorldsMu.Lock()
	defer benchWorldsMu.Unlock()
	w, ok := benchWorlds[s.name]
	if !ok {
		w = netsim.Generate(netsim.Options{Seed: 11, Markets: s.markets, ENodeBsPerMarket: s.enodebs})
		benchWorlds[s.name] = w
	}
	return w
}

// benchTables returns one singular and one pair-wise learning table of the
// scale's world, using the heavily tuned parameters the paper highlights.
func benchTables(b *testing.B, s benchScale) (sing, pair *dataset.Table) {
	b.Helper()
	w := benchWorld(b, s)
	builder := dataset.NewBuilder(w.Net, w.X2, nil)
	sing = builder.Labeled(w.Current, w.Schema.IndexOf("sFreqPrio"))
	pair = builder.Labeled(w.Current, w.Schema.IndexOf("hysA3Offset"))
	return sing, pair
}

func skipLarge(b *testing.B, s benchScale) {
	b.Helper()
	if s.name == "large" && testing.Short() {
		b.Skip("large scale skipped in -short mode")
	}
}

func BenchmarkCFFit(b *testing.B) {
	for _, s := range benchScales {
		for _, kind := range []string{"singular", "pair"} {
			b.Run(s.name+"/"+kind, func(b *testing.B) {
				skipLarge(b, s)
				sing, pair := benchTables(b, s)
				t := sing
				if kind == "pair" {
					t = pair
				}
				b.ReportMetric(float64(t.Len()), "rows")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := New().Fit(t); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCFPredict predicts training rows in rotation: the common serving
// case where the full dependent set matches via the index.
func BenchmarkCFPredict(b *testing.B) {
	for _, s := range benchScales {
		b.Run(s.name, func(b *testing.B) {
			skipLarge(b, s)
			_, pair := benchTables(b, s)
			m, err := New().Fit(pair)
			if err != nil {
				b.Fatal(err)
			}
			rows := make([][]string, 64)
			for i := range rows {
				rows[i] = benchRow(pair, i%pair.Len())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Predict(rows[i%len(rows)])
			}
		})
	}
}

// BenchmarkCFPredictRelaxed forces the relaxation ladder: the strongest
// dependent attribute carries a never-seen value, so every level that still
// includes it finds no matches before the ladder relaxes past it — the
// worst case for the match path.
func BenchmarkCFPredictRelaxed(b *testing.B) {
	for _, s := range benchScales {
		b.Run(s.name, func(b *testing.B) {
			skipLarge(b, s)
			_, pair := benchTables(b, s)
			fitted, err := New().Fit(pair)
			if err != nil {
				b.Fatal(err)
			}
			m := fitted.(*Model)
			deps := m.DependentColumns()
			if len(deps) == 0 {
				b.Skip("no dependent columns at this scale")
			}
			row := append([]string(nil), benchRow(pair, 0)...)
			row[deps[0]] = "bench-unseen-value"
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Predict(row)
			}
		})
	}
}

// benchRow adapts the benchmark to the table's row accessor.
func benchRow(t *dataset.Table, i int) []string { return t.Row(i) }

// BenchmarkPredictScopedPostings measures the local-learner path as the
// engine runs it: the neighborhood is built once into a site set
// (learn.SiteScoper.ScopeFrom) that filters each ladder level's
// posting-list candidates into the local vote, and each query row is
// encoded once and voted through PredictCodes.
func BenchmarkPredictScopedPostings(b *testing.B) {
	for _, s := range benchScales {
		b.Run(s.name, func(b *testing.B) {
			skipLarge(b, s)
			_, pair := benchTables(b, s)
			fitted, err := New().Fit(pair)
			if err != nil {
				b.Fatal(err)
			}
			m := fitted.(*Model)
			// Every other From carrier, precomputed as a scope.
			seen := map[lte.CarrierID]bool{}
			var ids []lte.CarrierID
			for i := 0; i < pair.Len(); i++ {
				if from := pair.Sites[i].From; from%2 == 0 && !seen[from] {
					seen[from] = true
					ids = append(ids, from)
				}
			}
			sc := m.ScopeFrom(ids)
			rows := make([][]string, 64)
			codes := make([][]int32, len(rows))
			for i := range rows {
				rows[i] = benchRow(pair, i%pair.Len())
				codes[i] = m.EncodeRow(rows[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictCodes(codes[i%len(rows)], rows[i%len(rows)], sc)
			}
		})
	}
}
