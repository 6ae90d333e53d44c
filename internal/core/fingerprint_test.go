package core

// Golden answer fingerprint. Every serving path of ShardedEngine — single
// Recommend, RecommendBatch, and RecommendStream at chunk 1 and at the
// default chunk — with the cache off, cold, and warm, must reproduce the
// same SHA-256 digest over every item's error string and every field of
// every Recommendation, and that digest is pinned to a constant. Any
// change that moves one answer, one explanation, or one evidence field
// fails here loudly, whichever path it touched.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"sync"
	"testing"

	"auric/internal/geo"
	"auric/internal/lte"
	"auric/internal/netsim"
)

// goldenDigest is the fingerprint of fingerprintItems' answers. Update it
// only for a change that is meant to alter recommendations, and say so.
const goldenDigest = "ebfbfcd255a62618d1d5ade2a15de3c2f3c1f25b7240dd5da8419748f42907d6"

// fingerprintWorld is the fixed small world the fingerprint runs over.
func fingerprintWorld() *netsim.World {
	return netsim.Generate(netsim.Options{Seed: 29, Markets: 2, ENodeBsPerMarket: 8})
}

// fingerprintItems picks four carriers per market, the first two of each
// with their pair-wise X2 neighbors, then repeats one item and appends a
// carrier whose market no shard serves.
func fingerprintItems(w *netsim.World) []BatchItem {
	var items []BatchItem
	perMarket := make([]int, len(w.Net.Markets))
	for id := range w.Net.Carriers {
		c := &w.Net.Carriers[id]
		if perMarket[c.Market] == 4 {
			continue
		}
		it := BatchItem{Carrier: c}
		if perMarket[c.Market] < 2 {
			it.Neighbors = w.X2.CarrierNeighbors(c.ID)
		}
		perMarket[c.Market]++
		items = append(items, it)
	}
	items = append(items, items[1])
	ghost := w.Net.Carriers[0]
	ghost.Market = 99
	return append(items, BatchItem{Carrier: &ghost})
}

// answerDigest hashes results in item order: each error string, then every
// Recommendation field, floats as their IEEE-754 bits and strings
// length-prefixed so no two distinct answer sets share an encoding.
func answerDigest(t *testing.T, results []BatchResult) string {
	t.Helper()
	if n := reflect.TypeOf(Recommendation{}).NumField(); n != 15 {
		t.Fatalf("Recommendation has %d fields; hash the new ones in answerDigest", n)
	}
	h := sha256.New()
	var b []byte
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	num := func(v int64) { b = binary.AppendVarint(b, v) }
	flt := func(f float64) { b = binary.BigEndian.AppendUint64(b, math.Float64bits(f)) }
	flag := func(v bool) {
		if v {
			num(1)
		} else {
			num(0)
		}
	}
	for i, res := range results {
		b = b[:0]
		num(int64(i))
		if res.Err != nil {
			flag(true)
			str(res.Err.Error())
		} else {
			flag(false)
		}
		num(int64(len(res.Recommendations)))
		for _, r := range res.Recommendations {
			str(r.Param)
			num(int64(r.ParamIndex))
			num(int64(r.Neighbor))
			flt(r.Value)
			str(r.Label)
			flt(r.Confidence)
			flag(r.Supported)
			str(r.Explanation)
			num(int64(r.RelaxationLevel))
			num(int64(r.Candidates))
			flt(r.VoteShare)
			flag(r.ExactIndexHit)
			num(int64(r.PostingLists))
			str(r.Dropped)
			num(int64(len(r.Dependents)))
			for _, d := range r.Dependents {
				str(d)
			}
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// servePath runs items through one ShardedEngine entry point and returns
// the per-item results in request order.
type servePath struct {
	name string
	run  func(t *testing.T, se *ShardedEngine, items []BatchItem) []BatchResult
}

func servePaths() []servePath {
	stream := func(chunk int) func(*testing.T, *ShardedEngine, []BatchItem) []BatchResult {
		return func(t *testing.T, se *ShardedEngine, items []BatchItem) []BatchResult {
			out := make([]BatchResult, len(items))
			next := 0
			err := se.RecommendStream(context.Background(), items, chunk, func(i int, res BatchResult) {
				if i != next {
					t.Fatalf("stream emitted item %d, want %d", i, next)
				}
				next++
				out[i] = res
			})
			if err != nil {
				t.Fatal(err)
			}
			if next != len(items) {
				t.Fatalf("stream emitted %d of %d items", next, len(items))
			}
			return out
		}
	}
	return []servePath{
		{"single", func(t *testing.T, se *ShardedEngine, items []BatchItem) []BatchResult {
			out := make([]BatchResult, len(items))
			for i, it := range items {
				out[i].Recommendations, out[i].Err = se.Recommend(it.Carrier, it.Neighbors)
			}
			return out
		}},
		{"batch", func(t *testing.T, se *ShardedEngine, items []BatchItem) []BatchResult {
			out, err := se.RecommendBatch(context.Background(), items)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"stream-chunk1", stream(1)},
		{"stream-default", stream(0)},
	}
}

// loadSharded builds and loads a local sharded engine over w.
func loadSharded(t *testing.T, w *netsim.World, cacheEntries int) *ShardedEngine {
	t.Helper()
	se := NewSharded(w.Schema, Options{Local: true, Workers: 2, CacheEntries: cacheEntries})
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	return se
}

// TestGoldenFingerprint requires every serving path, with the cache off,
// cold and warm, to produce the pinned answer digest.
func TestGoldenFingerprint(t *testing.T) {
	w := fingerprintWorld()
	items := fingerprintItems(w)
	pairwise := 0
	for _, it := range items {
		if len(it.Neighbors) > 0 {
			pairwise++
		}
	}
	if pairwise == 0 {
		t.Fatal("no fingerprint item has pair-wise neighbors")
	}
	plain := loadSharded(t, w, 0)
	cached := loadSharded(t, w, 1024)
	for _, p := range servePaths() {
		if got := answerDigest(t, p.run(t, plain, items)); got != goldenDigest {
			t.Errorf("%s, cache off: digest %s, want %s", p.name, got, goldenDigest)
		}
		// Reloading resets the cache, so each path starts cold.
		if _, err := cached.Load(w.Net, w.X2, w.Current); err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{"cold", "warm"} {
			if got := answerDigest(t, p.run(t, cached, items)); got != goldenDigest {
				t.Errorf("%s, cache %s: digest %s, want %s", p.name, phase, got, goldenDigest)
			}
		}
	}
}

// countingObserver tallies ObserveServed calls per carrier.
type countingObserver struct {
	mu     sync.Mutex
	served map[lte.CarrierID]int
}

func (o *countingObserver) ObserveLoad(int64, *lte.Network, *geo.Graph, *lte.Config)           {}
func (o *countingObserver) ObserveApply(int64, *lte.Network, []lte.CarrierID, []lte.CarrierID) {}

func (o *countingObserver) ObserveServed(_ int, c *lte.Carrier, _ []Recommendation) {
	o.mu.Lock()
	o.served[c.ID]++
	o.mu.Unlock()
}

// TestObserverServedContract pins the observer feed on every path, cache
// off, cold and warm: exactly one ObserveServed per successfully served
// item — cache hits and in-batch duplicates included — and none for an
// item that failed routing.
func TestObserverServedContract(t *testing.T) {
	w := fingerprintWorld()
	items := fingerprintItems(w)
	for _, entries := range []int{0, 1024} {
		se := loadSharded(t, w, entries)
		for _, p := range servePaths() {
			if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
				t.Fatal(err)
			}
			for _, phase := range []string{"cold", "warm"} {
				o := &countingObserver{served: make(map[lte.CarrierID]int)}
				se.SetObserver(o)
				results := p.run(t, se, items)
				se.SetObserver(nil)
				want := make(map[lte.CarrierID]int)
				for i, res := range results {
					if res.Err == nil {
						want[items[i].Carrier.ID]++
					}
				}
				if len(want) == 0 || results[len(results)-1].Err == nil {
					t.Fatalf("%s: want served items and a failed ghost item", p.name)
				}
				if !reflect.DeepEqual(o.served, want) {
					t.Errorf("%s, cache entries %d, %s: ObserveServed per carrier = %v, want %v",
						p.name, entries, phase, o.served, want)
				}
			}
		}
	}
}
