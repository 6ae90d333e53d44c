package core

// Generation-keyed cache tests. The contract under test: a cached engine
// is observationally identical to an uncached one — every answer,
// Diag-derived evidence fields included, is DeepEqual to the computed
// path — while hits skip the per-parameter fan-out entirely, concurrent
// identical requests collapse to one computation, and every generation
// swap (Load or Apply) starts the cache cold so no request can ever see
// an answer computed by a retired model.

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"auric/internal/lte"
	"auric/internal/netsim"
)

// cachedPair loads the same world into a cached and an uncached sharded
// engine; the uncached one is the reference every cached answer must match.
func cachedPair(t *testing.T, markets, entries int) (*netsim.World, *ShardedEngine, *ShardedEngine) {
	t.Helper()
	w := netsim.Generate(netsim.Options{Seed: 11, Markets: markets, ENodeBsPerMarket: 8})
	cached := NewSharded(w.Schema, Options{Local: true, Workers: 1, CacheEntries: entries})
	plain := NewSharded(w.Schema, Options{Local: true, Workers: 1})
	if _, err := cached.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	return w, cached, plain
}

// TestCacheEquivalence pins the cached serving path to the computed one:
// for sampled carriers across every market, the first (miss) and second
// (hit) answers of a cached engine are both DeepEqual to an uncached
// engine's answer — Explanation, Dependents, and every Diag evidence field
// included — on the context, batch, and stream paths alike.
func TestCacheEquivalence(t *testing.T) {
	w, cached, plain := cachedPair(t, 3, 1024)

	var ids []lte.CarrierID
	perMarket := make([]int, 3)
	for id := range w.Net.Carriers {
		if m := w.Net.Carriers[id].Market; perMarket[m] < 4 {
			perMarket[m]++
			ids = append(ids, lte.CarrierID(id))
		}
	}

	for _, id := range ids {
		c := &w.Net.Carriers[id]
		nbs := w.X2.CarrierNeighbors(id)
		want, err := plain.Recommend(c, nbs)
		if err != nil {
			t.Fatalf("carrier %d: uncached: %v", id, err)
		}
		miss, err := cached.Recommend(c, nbs)
		if err != nil {
			t.Fatalf("carrier %d: cached (miss): %v", id, err)
		}
		hit, err := cached.Recommend(c, nbs)
		if err != nil {
			t.Fatalf("carrier %d: cached (hit): %v", id, err)
		}
		if !reflect.DeepEqual(miss, want) {
			t.Errorf("carrier %d: cache-miss answer differs from the uncached engine", id)
		}
		if !reflect.DeepEqual(hit, want) {
			t.Errorf("carrier %d: cache-hit answer differs from the uncached engine", id)
		}
	}
	st := cached.CacheStats()
	if !st.Enabled {
		t.Fatal("CacheStats.Enabled = false for an engine built with CacheEntries > 0")
	}
	if st.Hits != uint64(len(ids)) || st.Misses != uint64(len(ids)) {
		t.Errorf("stats = %d hits / %d misses, want %d / %d", st.Hits, st.Misses, len(ids), len(ids))
	}
	if st.Entries != len(ids) {
		t.Errorf("stats.Entries = %d, want %d", st.Entries, len(ids))
	}
	if plainSt := plain.CacheStats(); plainSt.Enabled {
		t.Error("CacheStats.Enabled = true for an engine built without a cache")
	}

	// Batch path: a batch holding each carrier twice must dedup the repeat
	// against the already-warm cache and agree item by item.
	items := make([]BatchItem, 0, 2*len(ids))
	for _, id := range ids {
		it := BatchItem{Carrier: &w.Net.Carriers[id], Neighbors: w.X2.CarrierNeighbors(id)}
		items = append(items, it, it)
	}
	batch, err := cached.RecommendBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	streamed := make([]BatchResult, len(items))
	if err := cached.RecommendStream(context.Background(), items, 2, func(i int, res BatchResult) {
		streamed[i] = res
	}); err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		want, err := plain.Recommend(it.Carrier, it.Neighbors)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Err != nil {
			t.Fatalf("batch item %d: %v", i, batch[i].Err)
		}
		if !reflect.DeepEqual(batch[i].Recommendations, want) {
			t.Errorf("batch item %d differs from the uncached engine", i)
		}
		if !reflect.DeepEqual(streamed[i].Recommendations, want) {
			t.Errorf("streamed item %d differs from the uncached engine", i)
		}
	}
	if after := cached.CacheStats(); after.Misses != st.Misses {
		t.Errorf("warm batch+stream recomputed: misses %d -> %d", st.Misses, after.Misses)
	}
}

// TestCacheSingleflightCollapse launches many concurrent identical requests
// against a cold cache and requires exactly one computation: one miss, and
// every other request either joined the flight or hit the entry it left
// behind. All answers must be the same.
func TestCacheSingleflightCollapse(t *testing.T) {
	w, cached, _ := cachedPair(t, 1, 1024)
	c := &w.Net.Carriers[5]
	nbs := w.X2.CarrierNeighbors(c.ID)

	const n = 32
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		got   [n][]Recommendation
		errs  [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = cached.Recommend(c, nbs)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], got[0]) {
			t.Errorf("request %d answered differently from request 0", i)
		}
	}
	st := cached.CacheStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 computation for %d identical requests", st.Misses, n)
	}
	if st.Hits+st.SingleflightShared != n-1 {
		t.Errorf("hits (%d) + shared (%d) = %d, want %d", st.Hits, st.SingleflightShared, st.Hits+st.SingleflightShared, n-1)
	}
}

// TestCacheSingleflightAcrossPaths races single, batch and stream
// requests over the same cold keys: every entry point joins the others'
// in-flight computations, so each distinct key computes exactly once and
// every answer matches the uncached engine.
func TestCacheSingleflightAcrossPaths(t *testing.T) {
	w, cached, plain := cachedPair(t, 2, 1024)
	var items []BatchItem
	for id := 0; id < 6; id++ {
		items = append(items, BatchItem{Carrier: &w.Net.Carriers[id], Neighbors: w.X2.CarrierNeighbors(lte.CarrierID(id))})
	}
	want, err := plain.RecommendBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 4
	var (
		start  = make(chan struct{})
		wg     sync.WaitGroup
		served atomic.Int64
	)
	check := func(i int, res BatchResult) {
		served.Add(1)
		if res.Err != nil {
			t.Errorf("item %d: %v", i, res.Err)
		} else if !reflect.DeepEqual(res.Recommendations, want[i].Recommendations) {
			t.Errorf("item %d differs from the uncached engine", i)
		}
	}
	for r := 0; r < rounds; r++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			<-start
			for i, it := range items {
				var res BatchResult
				res.Recommendations, res.Err = cached.Recommend(it.Carrier, it.Neighbors)
				check(i, res)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			res, err := cached.RecommendBatch(context.Background(), items)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range res {
				check(i, res[i])
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			if err := cached.RecommendStream(context.Background(), items, 2, check); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()

	st := cached.CacheStats()
	if st.Misses != uint64(len(items)) {
		t.Errorf("misses = %d, want exactly one computation per each of %d keys", st.Misses, len(items))
	}
	if total := st.Hits + st.Misses + st.SingleflightShared; total != uint64(served.Load()) {
		t.Errorf("hits+misses+shared = %d, want one per served item (%d)", total, served.Load())
	}
}

// TestCacheFollowerRecomputesAfterLeaderFailure holds a key's flight as a
// stand-in leader, lets a stream join it, then fails the flight: the
// follower must compute its own answer rather than inherit the error.
// The stream's first item emits only after planning joined the second
// item to the flight, so settling from that emit is deterministic.
func TestCacheFollowerRecomputesAfterLeaderFailure(t *testing.T) {
	w, cached, plain := cachedPair(t, 1, 1024)
	first, joined := &w.Net.Carriers[0], &w.Net.Carriers[1]
	want, err := plain.Recommend(joined, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, lead := cached.cache.join(string(appendCacheKey(nil, cached.Generation(), joined, nil)))
	if !lead {
		t.Fatal("cold cache already had a flight for the key")
	}
	var got BatchResult
	err = cached.RecommendStream(context.Background(), []BatchItem{{Carrier: first}, {Carrier: joined}}, 1, func(i int, res BatchResult) {
		if i == 0 {
			cached.cache.settle(f, nil, context.Canceled)
			return
		}
		got = res
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Err != nil {
		t.Fatalf("follower inherited its leader's failure: %v", got.Err)
	}
	if !reflect.DeepEqual(got.Recommendations, want) {
		t.Error("follower's recomputed answer differs from the uncached engine")
	}
	if st := cached.CacheStats(); st.Misses != 2 || st.SingleflightShared != 0 {
		t.Errorf("misses = %d, shared = %d; want 2 computations and no shared result", st.Misses, st.SingleflightShared)
	}
}

// TestCacheNoStaleEntryAfterSwap holds a request on generation 1 while
// Load installs generation 2, and releases it only after the swap. The
// request's answer is stored under generation 1's key, which can never
// hit again; the cache must not keep it once Load has returned.
func TestCacheNoStaleEntryAfterSwap(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 5, Markets: 1, ENodeBsPerMarket: 6})
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	opts := Options{Workers: 1, CacheEntries: 64}
	// Every prediction blocks until gate closes, so the test can hold a
	// request in flight; it first signals entered (without blocking when
	// nobody listens).
	opts.beforePredict = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	se := NewSharded(w.Schema, opts)
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		_, err := se.Recommend(&w.Net.Carriers[0], nil)
		served <- err
	}()
	<-entered // the request is computing on generation 1
	loaded := make(chan error, 1)
	go func() {
		_, err := se.Load(w.Net, w.X2, w.Current)
		loaded <- err
	}()
	for se.Generation() < 2 {
		time.Sleep(time.Millisecond)
	}
	// Let a reset that runs before the drain happen first, so the held
	// request's answer lands after it.
	for deadline := time.Now().Add(100 * time.Millisecond); se.CacheStats().Invalidations < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}
	if st := se.CacheStats(); st.Entries != 0 {
		t.Errorf("cache holds %d entries after Load returned, want 0 (a retired generation's answer)", st.Entries)
	}
}

// TestCacheIngestInvalidation warms an answer, then applies a delta that
// changes the evidence behind it (a swarm of attribute-identical clones
// voting a different value for one singular parameter). The post-apply
// answer must match a fresh engine loaded over the patched inventory —
// which here means it must actually differ from the warmed answer, proving
// Apply retired the cached entry rather than serving it stale.
func TestCacheIngestInvalidation(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 11, Markets: 2, ENodeBsPerMarket: 8})
	// Global voting scope: the clone swarm's evidence must be in scope for
	// the query no matter where the clones land in the X2 graph.
	opts := Options{Workers: 1, CacheEntries: 1024}
	se := NewSharded(w.Schema, opts)
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}

	const donor = lte.CarrierID(5)
	c := &w.Net.Carriers[donor]
	warm, err := se.Recommend(c, nil) // singular parameters only
	if err != nil {
		t.Fatal(err)
	}
	if again, err := se.Recommend(c, nil); err != nil || !reflect.DeepEqual(again, warm) {
		t.Fatalf("warm repeat: err=%v, equal=%v", err, reflect.DeepEqual(again, warm))
	}
	before := se.CacheStats()
	if before.Hits == 0 {
		t.Fatalf("warm repeat did not hit the cache: %+v", before)
	}

	// The swarm: clones of the donor (identical attributes, so they vote in
	// the donor's exact evidence pool) whose first singular parameter is
	// moved one grid level. Enough of them flips the majority label.
	pi := w.Schema.Singular()[0]
	p := w.Schema.At(pi)
	cur := w.Current.Get(donor, pi)
	alt := p.ValueAt((p.Index(cur) + 1) % p.Levels())
	var d Delta
	for i := 0; i < 64; i++ {
		u := donorUpsert(w.Schema, w.Net, w.X2, w.Current, donor)
		u.Config[pi] = alt
		d.Upserts = append(d.Upserts, u)
	}
	if _, err := se.Apply(d); err != nil {
		t.Fatal(err)
	}

	got, err := se.Recommend(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(t, se, opts)
	want, err := ref.Recommend(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("post-apply cached answer differs from a fresh engine over the patched inventory")
	}
	if reflect.DeepEqual(got, warm) {
		t.Error("answer did not change after the clone swarm; the test lost its teeth (stale cache would pass)")
	}
	after := se.CacheStats()
	if after.Invalidations != before.Invalidations+1 {
		t.Errorf("invalidations = %d after one Apply, want %d", after.Invalidations, before.Invalidations+1)
	}

	// A reload is the other generation swap; it must also start cold.
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	if st := se.CacheStats(); st.Invalidations != after.Invalidations+1 || st.Entries != 0 {
		t.Errorf("post-reload stats = %+v, want one more invalidation and zero entries", st)
	}
	reloaded, err := se.Recommend(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reloaded, warm) {
		t.Error("post-reload answer differs from the original inventory's answer")
	}
}

// TestCacheEviction pins the LRU accounting: a cache sized below the
// request spread must evict, and entries can never exceed capacity.
func TestCacheEviction(t *testing.T) {
	w, cached, _ := cachedPair(t, 1, cacheShardCount) // one entry per shard
	n := len(w.Net.Carriers)
	if n > 64 {
		n = 64
	}
	for i := 0; i < n; i++ {
		c := &w.Net.Carriers[i]
		if _, err := cached.Recommend(c, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := cached.CacheStats()
	if st.Evictions == 0 {
		t.Errorf("no evictions after %d distinct requests into a %d-entry cache", n, cacheShardCount)
	}
	if st.Entries > cacheShardCount {
		t.Errorf("entries = %d exceeds capacity %d", st.Entries, cacheShardCount)
	}
	if st.Entries <= 0 {
		t.Errorf("entries = %d, want > 0", st.Entries)
	}
}

// TestCacheChurnRace hammers the cached serving path while reloads and
// live-ingest applies swap generations underneath it: every request must
// return a complete error-free recommendation set. Run under -race (make
// check does) this also gates the cache's internal synchronization.
func TestCacheChurnRace(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 11, Markets: 2, ENodeBsPerMarket: 8})
	opts := Options{Local: true, Workers: 1, CacheEntries: 64}
	se := NewSharded(w.Schema, opts)
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	singular := len(w.Schema.Singular())

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Readers: cycle a small carrier set so requests repeat (cache hits)
	// while the generation churns underneath them. Even iterations ask for
	// singular parameters only (exact count known); odd ones add neighbors.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				id := lte.CarrierID((g*3 + i) % 12)
				var nbs []lte.CarrierID
				if i%2 == 1 {
					nbs = w.X2.CarrierNeighbors(id)
				}
				recs, err := se.Recommend(&w.Net.Carriers[id], nbs)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if len(recs) < singular {
					t.Errorf("reader %d: %d recommendations, want >= %d", g, len(recs), singular)
					return
				}
			}
		}(g)
	}

	// Ingest churn: apply fresh clones. Upserts only — a racing reload
	// resets the inventory, so an id assigned before the swap may no longer
	// exist to tombstone, and this test is about generation churn, not
	// tombstone bookkeeping (TestCacheIngestInvalidation covers deltas).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			d := Delta{Upserts: []Upsert{donorUpsert(w.Schema, w.Net, w.X2, w.Current, lte.CarrierID(20+i))}}
			if _, err := se.Apply(d); err != nil {
				t.Errorf("apply %d: %v", i, err)
				return
			}
		}
	}()

	// Reload churn: full snapshot swaps racing the appliers and readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
		}
		stop.Store(true)
	}()

	wg.Wait()
	st := se.CacheStats()
	if st.Hits == 0 {
		t.Error("churn run recorded zero cache hits; repeat traffic should hit between swaps")
	}
	if st.Invalidations == 0 {
		t.Error("churn run recorded zero invalidations despite reloads and applies")
	}
}
