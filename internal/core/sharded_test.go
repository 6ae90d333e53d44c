package core

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"auric/internal/lte"
	"auric/internal/netsim"
)

// shardedWorld generates a small multi-market world and a loaded sharded
// engine over it.
func shardedWorld(t *testing.T, markets int) (*netsim.World, *ShardedEngine) {
	t.Helper()
	w := netsim.Generate(netsim.Options{Seed: 11, Markets: markets, ENodeBsPerMarket: 8})
	se := NewSharded(w.Schema, Options{Local: true})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	return w, se
}

// marketEngine trains a plain single engine restricted to one market —
// the unsharded reference the routing must be indistinguishable from.
func marketEngine(t *testing.T, w *netsim.World, market int) *Engine {
	t.Helper()
	eng := New(w.Schema, Options{Local: true})
	if err := eng.train(w.Net, w.X2, w.Current, func(id lte.CarrierID) bool {
		return w.Net.Carriers[id].Market == market
	}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestShardedEquivalence pins sharded routing to the single-engine path:
// for every sampled carrier (singular and pair-wise), the ShardedEngine's
// recommendations — including every Diag-derived evidence field — are
// DeepEqual to those of a dedicated unsharded engine trained on the same
// market partition. The comparisons run concurrently so `go test -race`
// gates the serving path's immutability.
func TestShardedEquivalence(t *testing.T) {
	const markets = 3
	w, se := shardedWorld(t, markets)
	singles := make([]*Engine, markets)
	for m := 0; m < markets; m++ {
		singles[m] = marketEngine(t, w, m)
	}

	var carriers []lte.CarrierID
	perMarket := make([]int, markets)
	for id := range w.Net.Carriers {
		m := w.Net.Carriers[id].Market
		if perMarket[m] < 4 {
			perMarket[m]++
			carriers = append(carriers, lte.CarrierID(id))
		}
	}

	var wg sync.WaitGroup
	for _, id := range carriers {
		wg.Add(1)
		go func(id lte.CarrierID) {
			defer wg.Done()
			c := &w.Net.Carriers[id]
			neighbors := w.X2.CarrierNeighbors(id)
			want, err := singles[c.Market].Recommend(c, neighbors)
			if err != nil {
				t.Errorf("carrier %d: single engine: %v", id, err)
				return
			}
			got, err := se.Recommend(c, neighbors)
			if err != nil {
				t.Errorf("carrier %d: sharded engine: %v", id, err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("carrier %d: sharded recommendations differ from the single-engine path", id)
			}
		}(id)
	}
	wg.Wait()

	// The multi-market batch path must agree item by item, and the stream
	// path must agree with the batch path.
	items := make([]BatchItem, len(carriers))
	for i, id := range carriers {
		items[i] = BatchItem{Carrier: &w.Net.Carriers[id], Neighbors: w.X2.CarrierNeighbors(id)}
	}
	batch, err := se.RecommendBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	streamed := make([]BatchResult, len(items))
	emitted := 0
	err = se.RecommendStream(context.Background(), items, 2, func(i int, res BatchResult) {
		if i != emitted {
			t.Errorf("stream emitted item %d, want %d (strict request order)", i, emitted)
		}
		emitted++
		streamed[i] = res
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != len(items) {
		t.Fatalf("stream emitted %d of %d items", emitted, len(items))
	}
	for i, id := range carriers {
		c := &w.Net.Carriers[id]
		want, err := singles[c.Market].Recommend(c, items[i].Neighbors)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Err != nil {
			t.Fatalf("batch item %d: %v", i, batch[i].Err)
		}
		if !reflect.DeepEqual(batch[i].Recommendations, want) {
			t.Errorf("batch item %d (carrier %d) differs from the single-engine path", i, id)
		}
		if !reflect.DeepEqual(streamed[i], batch[i]) {
			t.Errorf("streamed item %d differs from the batch path", i)
		}
	}
}

// TestShardedHotReload hammers the serving path from many goroutines
// while snapshots swap in a loop: every request must complete with a full
// recommendation set and zero errors (the HTTP layer's "zero 5xx"), the
// race detector must see no torn reads, and each Load must return only
// after the generation it retired has drained.
func TestShardedHotReload(t *testing.T) {
	w, se := shardedWorld(t, 2)
	ids := []lte.CarrierID{0, 3, 7, 11, lte.CarrierID(len(w.Net.Carriers) - 1)}

	stop := make(chan struct{})
	var requests, failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(g+i)%len(ids)]
				c := &w.Net.Carriers[id]
				if i%5 == 0 {
					res, err := se.RecommendBatch(context.Background(),
						[]BatchItem{{Carrier: c}, {Carrier: &w.Net.Carriers[ids[(g+i+1)%len(ids)]]}})
					requests.Add(1)
					if err != nil || res[0].Err != nil || res[1].Err != nil {
						failures.Add(1)
					}
					continue
				}
				recs, err := se.Recommend(c, nil)
				requests.Add(1)
				if err != nil || len(recs) != 39 {
					failures.Add(1)
				}
			}
		}(g)
	}

	gen := se.Generation()
	for i := 0; i < 4; i++ {
		old := se.state.Load()
		g, err := se.Load(w.Net, w.X2, w.Current)
		if err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		if g != gen+int64(i)+1 {
			t.Fatalf("reload %d: generation %d, want %d", i, g, gen+int64(i)+1)
		}
		// Load returned, so the retired generation must be fully drained.
		select {
		case <-old.drained:
		default:
			t.Fatalf("reload %d returned before the old generation drained", i)
		}
		if n := old.refs.Load(); n != 0 {
			t.Fatalf("reload %d: retired generation still holds %d refs", i, n)
		}
	}
	close(stop)
	wg.Wait()

	if requests.Load() == 0 {
		t.Fatal("hammer issued no requests")
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed during hot reload, want 0", n, requests.Load())
	}
	// The final generation holds only its installed reference.
	if n := se.state.Load().refs.Load(); n != 1 {
		t.Fatalf("serving generation refs = %d after drain, want 1", n)
	}
}

// TestRecommendStreamProgress proves streaming is incremental: with
// one-item chunks, the first emitted result arrives while most of the
// batch is still uncomputed (the lazy launch window keeps later chunks
// unstarted), and emission covers every item exactly once, in order.
func TestRecommendStreamProgress(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 5, Markets: 1, ENodeBsPerMarket: 6})
	var predicts atomic.Int64
	// Every prediction is counted and slowed down, enough to make stream
	// progress observable.
	se := NewSharded(w.Schema, Options{beforePredict: func() {
		predicts.Add(1)
		time.Sleep(500 * time.Microsecond)
	}})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}

	const n = 32
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{Carrier: &w.Net.Carriers[i%len(w.Net.Carriers)]}
	}
	total := int64(n * len(w.Schema.Singular()))
	var atFirstEmit int64 = -1
	emitted := 0
	err := se.RecommendStream(context.Background(), items, 1, func(i int, res BatchResult) {
		if i != emitted {
			t.Errorf("emitted item %d, want %d", i, emitted)
		}
		emitted++
		if atFirstEmit < 0 {
			atFirstEmit = predicts.Load()
		}
		if res.Err != nil {
			t.Errorf("item %d: %v", i, res.Err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != n {
		t.Fatalf("emitted %d of %d items", emitted, n)
	}
	if p := predicts.Load(); p != total {
		t.Fatalf("predicts = %d, want %d", p, total)
	}
	if atFirstEmit >= total {
		t.Fatalf("first line emitted only after all %d predictions finished — stream is not incremental", total)
	}
}

// TestShardedRouting pins the error surface: serving before Load fails,
// an out-of-range market fails the request (or its batch slot) without
// touching its siblings.
func TestShardedRouting(t *testing.T) {
	w, se := shardedWorld(t, 2)

	empty := NewSharded(w.Schema, Options{Local: true})
	if _, err := empty.Recommend(&w.Net.Carriers[0], nil); err == nil {
		t.Error("recommend before Load did not fail")
	}

	ghost := w.Net.Carriers[0]
	ghost.Market = 99
	if _, err := se.Recommend(&ghost, nil); err == nil {
		t.Error("out-of-range market did not fail")
	}

	res, err := se.RecommendBatch(context.Background(), []BatchItem{
		{Carrier: &w.Net.Carriers[0]},
		{Carrier: &ghost},
		{Carrier: &w.Net.Carriers[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || len(res[0].Recommendations) == 0 {
		t.Errorf("item 0 = %+v, want recommendations", res[0].Err)
	}
	if res[1].Err == nil {
		t.Error("ghost-market batch item did not carry an error")
	}
	if res[2].Err != nil || len(res[2].Recommendations) == 0 {
		t.Errorf("item 2 = %+v, want recommendations", res[2].Err)
	}

	sizes, err := se.ShardSizes()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range sizes {
		sum += n
	}
	if len(sizes) != 2 || sum != len(w.Net.Carriers) {
		t.Errorf("shard sizes %v do not cover the %d carriers", sizes, len(w.Net.Carriers))
	}
}

// TestShardSizesCountLiveCarriers tombstones one carrier and requires its
// market's shard size to drop by one, and every other market's to stay:
// a tombstoned carrier keeps its Carriers slot but no longer serves.
func TestShardSizesCountLiveCarriers(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 11, Markets: 2, ENodeBsPerMarket: 6})
	se := NewSharded(w.Schema, Options{Workers: 1})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	before, err := se.ShardSizes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Apply(Delta{Tombstones: []lte.CarrierID{0}}); err != nil {
		t.Fatal(err)
	}
	after, err := se.ShardSizes()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), before...)
	want[w.Net.Carriers[0].Market]--
	if !reflect.DeepEqual(after, want) {
		t.Errorf("shard sizes after tombstoning carrier 0: %v, want %v (before %v)", after, want, before)
	}
}

// TestUpsertOnlyApplyKeepsTombstones tombstones a carrier, applies an
// upsert-only delta — which shares the previous generation's tombstone set
// instead of copying it — and then tombstones another carrier. The first
// tombstone stays in force across the upsert-only apply (SnapshotState
// lists it, an upsert of its id is rejected, ShardSizes leaves it out), and
// the later tombstone does not leak into the set the upsert-only
// generation shares.
func TestUpsertOnlyApplyKeepsTombstones(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 11, Markets: 2, ENodeBsPerMarket: 6})
	se := NewSharded(w.Schema, Options{Workers: 1})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Apply(Delta{Tombstones: []lte.CarrierID{0}}); err != nil {
		t.Fatal(err)
	}
	sizes, err := se.ShardSizes()
	if err != nil {
		t.Fatal(err)
	}
	tombDead := se.state.Load().dead

	net, cfg, _, _, err := se.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	_, x2, _, err := se.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	res, err := se.Apply(Delta{Upserts: []Upsert{donorUpsert(w.Schema, net, x2, cfg, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	shared := se.state.Load().dead
	if reflect.ValueOf(shared).UnsafePointer() != reflect.ValueOf(tombDead).UnsafePointer() {
		t.Error("upsert-only apply copied the tombstone set instead of sharing it")
	}
	if ok, err := tombstoned(se, 0); err != nil || !ok {
		t.Fatalf("carrier 0 not tombstoned after an upsert-only apply (err %v)", err)
	}
	again := donorUpsert(w.Schema, net, x2, cfg, 1)
	again.Carrier.ID = 0
	if _, err := se.Apply(Delta{Upserts: []Upsert{again}}); err == nil {
		t.Error("upsert of tombstoned carrier 0 accepted after an upsert-only apply")
	}
	want := slices.Clone(sizes)
	want[w.Net.Carriers[1].Market]++
	if got, err := se.ShardSizes(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("shard sizes after the upsert: %v (err %v), want %v", got, err, want)
	}

	if _, err := se.Apply(Delta{Tombstones: []lte.CarrierID{2}}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []lte.CarrierID{0, 2} {
		if ok, err := tombstoned(se, id); err != nil || !ok {
			t.Fatalf("carrier %d not tombstoned (err %v)", id, err)
		}
	}
	if shared[2] {
		t.Error("a later tombstone was written into the set an earlier generation shares")
	}
	want[w.Net.Carriers[2].Market]--
	if got, err := se.ShardSizes(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("shard sizes after tombstoning carrier 2: %v (err %v), want %v (carrier %d added)", got, err, want, res.Assigned[0])
	}
}
