package core

// Generation-keyed recommendation memo cache. Auric's premise is that
// carriers massively share configuration-determining attribute
// combinations (the paper's exact-match index exists because identical
// attribute vectors recur constantly), so the serving tier memoizes fully
// materialized recommendation sets: key = (serving generation, carrier
// identity and attributes, neighbor list), value = the exact
// []Recommendation slice a computation produced, Diag fields included.
// Because the serving generation is part of the key and every generation
// swap (Load, Apply) also drops the map wholesale, invalidation is
// structural — a patched or retrained model starts cold by construction,
// with no TTL races. A singleflight layer collapses concurrent identical
// in-flight requests into one computation.
//
// Cached values are shared, not copied: callers must treat a returned
// []Recommendation as immutable, which every caller in this repository
// already does (auricd writes response bytes straight from it, the health
// observer is documented to receive immutable args).

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"auric/internal/lte"
	"auric/internal/obs"
)

// Cache metrics: the operator's view of how much of the serving traffic
// the memo tier absorbs and how often structural invalidation resets it
// (OPERATIONS.md).
var (
	cacheHitsTotal = obs.Default().Counter("auric_cache_hits_total",
		"Recommendation requests answered from the generation-keyed memo cache.")
	cacheMissesTotal = obs.Default().Counter("auric_cache_misses_total",
		"Recommendation requests that computed the full per-parameter fan-out (cache enabled, no entry).")
	cacheEvictionsTotal = obs.Default().Counter("auric_cache_evictions_total",
		"Cache entries evicted by the per-shard LRU capacity.")
	cacheSharedTotal = obs.Default().Counter("auric_cache_singleflight_shared_total",
		"Requests or batch items that joined an identical in-flight computation instead of computing (singleflight collapse).")
	cacheInvalidationsTotal = obs.Default().Counter("auric_cache_invalidations_total",
		"Wholesale cache resets caused by a generation swap (reload or live ingest).")
	cacheEntriesGauge = obs.Default().Gauge("auric_cache_entries",
		"Recommendation sets currently held by the memo cache.")
)

// cacheShardCount spreads the key space over independently locked LRU
// shards so concurrent serving goroutines rarely contend on one mutex.
const cacheShardCount = 16

// recCache is the generation-keyed memo cache one ShardedEngine owns.
type recCache struct {
	shards  [cacheShardCount]cacheShard
	entries atomic.Int64

	// Local counters back CacheStats so tests and auricload can read one
	// engine's traffic; the obs counters above aggregate process-wide.
	hits, misses, evictions, shared, invalidations atomic.Uint64

	// flights collapses concurrent identical requests: the first arrival
	// computes, later arrivals wait on its channel and share the result.
	flightMu sync.Mutex
	flights  map[string]*flight
}

type flight struct {
	key  string
	done chan struct{}
	recs []Recommendation
	err  error
}

// cacheShard is one LRU partition: a map for lookup plus an intrusive
// doubly-linked recency list (head = most recent, tail = next to evict).
type cacheShard struct {
	mu         sync.Mutex
	cap        int
	m          map[string]*cacheEntry
	head, tail *cacheEntry
}

type cacheEntry struct {
	key        string
	recs       []Recommendation
	prev, next *cacheEntry
}

// newRecCache sizes a cache for entries total recommendation sets,
// partitioned evenly across the LRU shards (at least one per shard).
func newRecCache(entries int) *recCache {
	rc := &recCache{flights: make(map[string]*flight)}
	per := entries / cacheShardCount
	if per < 1 {
		per = 1
	}
	for i := range rc.shards {
		rc.shards[i].cap = per
		rc.shards[i].m = make(map[string]*cacheEntry, per)
	}
	return rc
}

// CacheStats is a point-in-time reading of one engine's memo cache.
type CacheStats struct {
	// Enabled reports whether the engine was built with a cache
	// (Options.CacheEntries > 0); every other field is zero when false.
	Enabled bool
	// Entries is the number of recommendation sets currently held.
	Entries int
	// Hits and Misses count requests served from the cache versus computed.
	Hits, Misses uint64
	// Evictions counts entries dropped by LRU capacity pressure.
	Evictions uint64
	// SingleflightShared counts requests that joined an in-flight
	// computation instead of starting their own.
	SingleflightShared uint64
	// Invalidations counts wholesale resets from generation swaps.
	Invalidations uint64
}

func (rc *recCache) stats() CacheStats {
	if rc == nil {
		return CacheStats{}
	}
	return CacheStats{
		Enabled:            true,
		Entries:            int(rc.entries.Load()),
		Hits:               rc.hits.Load(),
		Misses:             rc.misses.Load(),
		Evictions:          rc.evictions.Load(),
		SingleflightShared: rc.shared.Load(),
		Invalidations:      rc.invalidations.Load(),
	}
}

// appendCacheKey encodes everything a recommendation depends on into b:
// the serving generation, the carrier's identity (its own evidence is
// excluded from its voting scope, so two attribute-identical carriers can
// answer differently), the eNodeB the geographic scope anchors on, every
// learner-visible attribute field, and the neighbor list for pair-wise
// parameters. Varint-encoded with length-prefixed strings, so distinct
// inputs cannot collide.
func appendCacheKey(b []byte, gen int64, c *lte.Carrier, neighbors []lte.CarrierID) []byte {
	b = binary.AppendVarint(b, gen)
	b = binary.AppendVarint(b, int64(c.ID))
	b = binary.AppendVarint(b, int64(c.ENodeB))
	b = binary.AppendVarint(b, int64(c.Market))
	b = binary.AppendVarint(b, int64(c.FrequencyMHz))
	b = binary.AppendVarint(b, int64(c.Type))
	b = appendKeyStr(b, c.Info)
	b = binary.AppendVarint(b, int64(c.Morphology))
	b = binary.AppendVarint(b, int64(c.BandwidthMHz))
	b = appendKeyStr(b, c.MIMOMode)
	b = appendKeyStr(b, c.Hardware)
	b = binary.AppendVarint(b, int64(c.CellSizeMi))
	b = binary.AppendVarint(b, int64(c.TAC))
	b = appendKeyStr(b, c.Vendor)
	b = binary.AppendVarint(b, int64(c.NeighborChan))
	b = binary.AppendVarint(b, int64(c.NeighborsOnENB))
	b = appendKeyStr(b, c.SoftwareVersion)
	for _, nb := range neighbors {
		b = binary.AppendVarint(b, int64(nb))
	}
	return b
}

func appendKeyStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// keyBufs pools the scratch buffers cache keys are built in, so a cache
// lookup costs zero allocations (the key is only materialized as a string
// when an entry is actually stored).
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 160); return &b }}

// keyHash is FNV-1a over the key bytes, used only to pick a shard. get
// hashes the pooled byte view and put the stored string, so both forms
// go through this one function.
func keyHash[K []byte | string](k K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	return h
}

// Counter helpers pair the per-engine stat with its process-wide metric.
func (rc *recCache) countHit()    { rc.hits.Add(1); cacheHitsTotal.Inc() }
func (rc *recCache) countMiss()   { rc.misses.Add(1); cacheMissesTotal.Inc() }
func (rc *recCache) countShared() { rc.shared.Add(1); cacheSharedTotal.Inc() }

// get returns the cached recommendation set for key. It counts nothing:
// callers attribute hits/misses to the path that produced them.
func (rc *recCache) get(key []byte) ([]Recommendation, bool) {
	s := &rc.shards[keyHash(key)%cacheShardCount]
	s.mu.Lock()
	e, ok := s.m[string(key)] // compiler-recognized no-alloc lookup
	if ok {
		s.moveToFront(e)
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.recs, true
}

// put stores a computed recommendation set, evicting the shard's least
// recently used entry when at capacity.
func (rc *recCache) put(key string, recs []Recommendation) {
	s := &rc.shards[keyHash(key)%cacheShardCount]
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		e.recs = recs
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	evicted := 0
	for len(s.m) >= s.cap && s.tail != nil {
		old := s.tail
		s.unlink(old)
		delete(s.m, old.key)
		evicted++
	}
	e := &cacheEntry{key: key, recs: recs}
	s.m[e.key] = e
	s.pushFront(e)
	s.mu.Unlock()
	if evicted > 0 {
		rc.evictions.Add(uint64(evicted))
		cacheEvictionsTotal.Add(uint64(evicted))
	}
	n := rc.entries.Add(int64(1 - evicted))
	cacheEntriesGauge.Set(float64(n))
}

// reset drops every entry; the generation swap that triggered it already
// retired the keys (the generation is part of them), this reclaims their
// memory once the retired generation has drained, so patched models start
// cold and compact.
func (rc *recCache) reset() {
	if rc == nil {
		return
	}
	for i := range rc.shards {
		s := &rc.shards[i]
		s.mu.Lock()
		s.m = make(map[string]*cacheEntry, s.cap)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
	rc.entries.Store(0)
	rc.invalidations.Add(1)
	cacheInvalidationsTotal.Inc()
	cacheEntriesGauge.Set(0)
}

// join registers a request for key's answer. The first arrival leads
// (lead is true) and must settle f once it has computed; later arrivals
// wait on f.done and share the leader's result.
func (rc *recCache) join(key string) (f *flight, lead bool) {
	rc.flightMu.Lock()
	defer rc.flightMu.Unlock()
	if f, ok := rc.flights[key]; ok {
		return f, false
	}
	f = &flight{key: key, done: make(chan struct{})}
	rc.flights[key] = f
	return f, true
}

// settle publishes a leader's result: a success is cached (errors never
// are), then the key leaves the flight map before followers are released,
// so a request arriving after the close finds the cached entry instead of
// a spent flight.
func (rc *recCache) settle(f *flight, recs []Recommendation, err error) {
	if err == nil {
		rc.put(f.key, recs)
	}
	f.recs, f.err = recs, err
	rc.flightMu.Lock()
	delete(rc.flights, f.key)
	rc.flightMu.Unlock()
	close(f.done)
}

// --- intrusive LRU list (shard lock held) ---

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
