package core

// Engine-level benchmarks: Train (all parameter models fitted over the
// shared attribute base) and Recommend (every parameter of one carrier,
// including pair-wise parameters for its X2 neighbors). These bound the
// serving path that auricd exposes; results are tracked in EXPERIMENTS.md
// and BENCH_cf.json.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"auric/internal/lte"
	"auric/internal/netsim"
	"auric/internal/rng"
	"auric/internal/trace"
)

var (
	engineBenchOnce  sync.Once
	engineBenchWorld *netsim.World
)

func benchWorld(b *testing.B) *netsim.World {
	b.Helper()
	engineBenchOnce.Do(func() {
		engineBenchWorld = netsim.Generate(netsim.Options{Seed: 11, Markets: 4, ENodeBsPerMarket: 30})
	})
	return engineBenchWorld
}

func BenchmarkEngineTrain(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(w.Schema, Options{Workers: 1})
		if err := e.Train(w.Net, w.X2, w.Current); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineRecommend(b *testing.B) {
	w := benchWorld(b)
	e := New(w.Schema, Options{Workers: 1})
	if err := e.Train(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	c := &w.Net.Carriers[10]
	nbs := w.X2.CarrierNeighbors(c.ID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Recommend(c, nbs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendCached measures the generation-keyed cache's hit path:
// one warm-up request materializes the answer, then every iteration serves
// the same (generation, carrier, neighbors) key from the memo. This is the
// steady-state cost of repeat traffic and should sit orders of magnitude
// below BenchmarkEngineRecommend's full compute.
func BenchmarkRecommendCached(b *testing.B) {
	w := benchWorld(b)
	se := NewSharded(w.Schema, Options{Workers: 1, CacheEntries: 1024})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	c := &w.Net.Carriers[10]
	nbs := w.X2.CarrierNeighbors(c.ID)
	if _, err := se.Recommend(c, nbs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := se.Recommend(c, nbs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := se.CacheStats(); st.Hits < uint64(b.N) {
		b.Fatalf("expected >= %d cache hits, got %d", b.N, st.Hits)
	}
}

// BenchmarkRecommendColdAllocs measures the cache-miss (cold compute) path
// with the cache enabled: a deliberately tiny cache and a carrier cycle
// wider than its capacity force every request through the full compute plus
// a key build, a put, and an eviction. allocs/op here is the figure the
// serving-path allocation sweep targets; compare against the committed
// BenchmarkEngineRecommend baseline.
func BenchmarkRecommendColdAllocs(b *testing.B) {
	w := benchWorld(b)
	se := NewSharded(w.Schema, Options{Workers: 1, CacheEntries: 16})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	carriers := w.Net.Carriers
	if len(carriers) < 64 {
		b.Fatalf("bench world too small: %d carriers", len(carriers))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &carriers[i%64]
		if _, err := se.Recommend(c, w.X2.CarrierNeighbors(c.ID)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := se.CacheStats(); b.N >= 128 && st.Misses < uint64(b.N)/2 {
		b.Fatalf("cold bench unexpectedly warm: %d misses over %d ops", st.Misses, b.N)
	}
}

// BenchmarkIngestUpsert measures absorbing one carrier through live ingest:
// each iteration applies a delta with one fresh carrier (cloned from a
// donor, fully configured, pair relations included) plus the tombstone of
// the carrier added by the previous iteration, so the live inventory stays
// at steady state. Compare against BenchmarkIngestRefit — the from-scratch
// reload the incremental path replaces — for the speedup EXPERIMENTS.md
// tracks.
func BenchmarkIngestUpsert(b *testing.B) {
	benchIngestUpsert(b, benchWorld(b))
}

// BenchmarkIngestUpsertWorld is BenchmarkIngestUpsert over the perfbench
// world: the paper's 28 markets at 30 eNodeBs each (6,498 carriers, 57,795
// relations). A delta touches one market, so the cost that grows with the
// other 27 is what this case shows. Skipped under -short.
func BenchmarkIngestUpsertWorld(b *testing.B) {
	if testing.Short() {
		b.Skip("near-paper scale; skipped under -short")
	}
	benchIngestUpsert(b, netsim.Generate(netsim.Options{Seed: 1, Markets: 28, ENodeBsPerMarket: 30}))
}

// BenchmarkIngestUpsertVaried is the ingest benchmark whose deltas shift
// dependent sets: on the 28 × 30 world, step k clones a donor from market
// k mod 28 (a different carrier each lap) and tombstones the clone from two
// steps back, so every apply touches two markets and the counts the
// chi-square selection reads keep moving. BenchmarkIngestUpsert churns one
// donor and almost never shifts a set. refit/op is ApplyResult.Refit per
// apply: the models whose dependent set changed. Skipped under -short.
func BenchmarkIngestUpsertVaried(b *testing.B) {
	if testing.Short() {
		b.Skip("near-paper scale; skipped under -short")
	}
	w := netsim.Generate(netsim.Options{Seed: 1, Markets: 28, ENodeBsPerMarket: 30})
	se := NewSharded(w.Schema, Options{Workers: 1})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	byMarket := make([][]lte.CarrierID, len(w.Net.Markets))
	for _, c := range w.Net.Carriers {
		byMarket[c.Market] = append(byMarket[c.Market], c.ID)
	}
	ups := make([]Upsert, 0, 4*len(byMarket))
	for k := 0; k < cap(ups); k++ {
		cs := byMarket[k%len(byMarket)]
		donor := cs[(k/len(byMarket)*37+5)%len(cs)]
		ups = append(ups, donorUpsert(w.Schema, w.Net, w.X2, w.Current, donor))
	}
	var clones []lte.CarrierID
	refits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Delta{Upserts: []Upsert{ups[i%len(ups)]}}
		if n := len(clones); n >= 2 {
			d.Tombstones = []lte.CarrierID{clones[n-2]}
		}
		res, err := se.Apply(d)
		if err != nil {
			b.Fatal(err)
		}
		clones = append(clones, res.Assigned[0])
		refits += res.Refit
	}
	b.ReportMetric(float64(refits)/float64(b.N), "refit/op")
}

func benchIngestUpsert(b *testing.B, w *netsim.World) {
	se := NewSharded(w.Schema, Options{Workers: 1})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	u := donorUpsert(w.Schema, w.Net, w.X2, w.Current, 5)
	prev := lte.CarrierID(-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Delta{Upserts: []Upsert{u}}
		if prev >= 0 {
			d.Tombstones = []lte.CarrierID{prev}
		}
		res, err := se.Apply(d)
		if err != nil {
			b.Fatal(err)
		}
		prev = res.Assigned[0]
	}
}

// BenchmarkIngestRefit is the non-incremental baseline for the same change:
// a full ShardedEngine.Load retraining every market shard from scratch.
func BenchmarkIngestRefit(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se := NewSharded(w.Schema, Options{Workers: 1})
		if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadWorld measures a ShardedEngine.Load of the perfbench world
// (28 markets × 30 eNodeBs) and what the fitted shards keep:
// retained-KB/carrier is the live heap the loaded engine adds, read after
// a GC, per carrier of the world. It is the model-memory figure at the
// perfbench size.
func BenchmarkLoadWorld(b *testing.B) {
	benchLoad(b, netsim.Generate(netsim.Options{Seed: 1, Markets: 28, ENodeBsPerMarket: 30}))
}

// BenchmarkLoadDense is BenchmarkLoadWorld for one market at the paper's
// density (1,840 eNodeBs, about 14.5K carriers), where every per-market
// cost is 62× the perfbench world's. Skipped under -short.
func BenchmarkLoadDense(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-density market; skipped under -short")
	}
	benchLoad(b, netsim.Generate(netsim.Options{Seed: 1, Markets: 1, ENodeBsPerMarket: 1840}))
}

// benchLoad loads w into a fresh sharded engine per iteration and reports
// the retained heap per carrier, measured between two forced GCs outside
// the timer.
func benchLoad(b *testing.B, w *netsim.World) {
	var ms runtime.MemStats
	var retained int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := int64(ms.HeapAlloc)
		b.StartTimer()
		se := NewSharded(w.Schema, Options{Workers: 1})
		if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		retained += int64(ms.HeapAlloc) - before
		runtime.KeepAlive(se)
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/1024/float64(b.N)/float64(len(w.Net.Carriers)), "retained-KB/carrier")
}

// BenchmarkRecommendBatch measures the batched serving path at three batch
// sizes: each iteration recommends every parameter (pair-wise included)
// for n carriers in one RecommendBatch fan-out, amortizing query encoding
// and scratch reuse across the batch. The per-carrier figure is reported
// as the carrier-us metric for comparison against BenchmarkEngineRecommend.
func BenchmarkRecommendBatch(b *testing.B) {
	w := benchWorld(b)
	e := New(w.Schema, Options{Workers: 1})
	if err := e.Train(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("carriers=%d", n), func(b *testing.B) {
			items := make([]BatchItem, n)
			for i := range items {
				c := &w.Net.Carriers[i%len(w.Net.Carriers)]
				items[i] = BatchItem{Carrier: c, Neighbors: w.X2.CarrierNeighbors(c.ID)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.RecommendBatch(context.Background(), items)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "carrier-us")
		})
	}
}

// BenchmarkRecommendSweep is the in-process shape of perfbench's sweep
// workload: a Local sharded engine with the cache off answers RecommendBatch
// batches of 64 carriers without neighbors (singular parameters only),
// walking every carrier of the world in a fixed permutation, so no answer is
// memoized and every vote is scoped to an X2 neighborhood. One op is one
// batch; carrier-us is the per-carrier cost.
func BenchmarkRecommendSweep(b *testing.B) {
	benchSweep(b, Options{Local: true, Workers: 1}, nil)
}

// BenchmarkRecommendSweepServed is the sweep batch on auricd's shipping
// settings: the worker pool at its default size (Workers: 0) and every
// batch under a sampled root span, as auricd's default trace sample rate of
// 1 records it. It is the in-process view of the per-job fan-out and span
// costs BenchmarkRecommendSweep (one worker, no trace) cannot see.
func BenchmarkRecommendSweepServed(b *testing.B) {
	benchSweep(b, Options{Local: true}, trace.New(trace.Options{SampleRate: 1}))
}

// benchSweep runs the sweep batches on an engine built with opts, each
// batch under a root span of tr when tr is non-nil.
func benchSweep(b *testing.B, opts Options, tr *trace.Tracer) {
	const batch = 64
	w := benchWorld(b)
	se := NewSharded(w.Schema, opts)
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	perm := rng.New(1).Perm(len(w.Net.Carriers))
	items := make([]BatchItem, batch)
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range items {
			items[k] = BatchItem{Carrier: &w.Net.Carriers[perm[next]]}
			next = (next + 1) % len(perm)
		}
		ctx := context.Background()
		var root *trace.Span
		if tr != nil {
			ctx, root = tr.StartRoot(ctx, "sweep")
		}
		res, err := se.RecommendBatch(ctx, items)
		root.Finish()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "carrier-us")
}
