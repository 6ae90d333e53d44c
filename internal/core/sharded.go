package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"auric/internal/geo"
	"auric/internal/lte"
	"auric/internal/obs"
	"auric/internal/paramspec"
)

// Shard-lifecycle metrics: load/swap cadence and the serving generation,
// the operator's view of zero-downtime reloads (OPERATIONS.md).
var (
	shardLoadSeconds = obs.Default().Histogram("auric_shard_load_seconds",
		"Wall-clock seconds per ShardedEngine.Load call (all market shards trained + swapped).", obs.DefBuckets)
	shardSwapsTotal = obs.Default().Counter("auric_shard_swaps_total",
		"Snapshot generations installed by ShardedEngine.Load or Apply.")
	shardGeneration = obs.Default().Gauge("auric_shard_generation",
		"Snapshot generation currently serving (increments on every reload).")
	shardCount = obs.Default().Gauge("auric_shard_engines",
		"Market shards (trained engines) in the serving generation.")
)

// streamAhead bounds how many stream chunks recommend concurrently ahead
// of the emitter. Chunks launch lazily in emission order, so at most
// streamAhead chunks are in flight and everything further back has not
// started — the property that lets NDJSON lines leave the server while
// the tail of a large batch is still uncomputed.
const streamAhead = 4

// defaultStreamChunk is the RecommendStream chunk size when the caller
// passes zero: large enough to amortize the per-batch encoding setup,
// small enough that the first line of a big sweep flushes early.
const defaultStreamChunk = 64

// ShardedEngine serves recommendations from one Engine per market — the
// deployment shape of the paper's 400K-carrier, 28-market network. Each
// shard trains only on its market's carriers (Options.Keep partition), so
// shard model state is a fraction of a monolithic engine's and markets
// reload independently of each other's traffic.
//
// Serving state is immutable once installed: Load trains a full shard set
// in the background, swaps one atomic pointer, and waits for requests on
// the previous generation to drain. Requests acquire the current state
// once and use it end to end, so a swap mid-request is invisible — there
// are no torn reads and no downtime.
type ShardedEngine struct {
	schema *paramspec.Schema
	opts   Options
	gen    atomic.Int64
	state  atomic.Pointer[shardState]
	// loadMu serializes Load calls; the serving path never takes it.
	loadMu sync.Mutex
	// watcher holds the optional model-quality Observer (observer.go).
	watcher atomic.Pointer[observerBox]
	// cache memoizes materialized recommendation sets per generation
	// (cache.go); nil when Options.CacheEntries is zero.
	cache *recCache
}

// shardState is one immutable serving generation: the snapshot inventory
// and its trained per-market engines, plus the drain bookkeeping.
type shardState struct {
	gen int64
	net *lte.Network
	x2  *geo.Graph
	cfg *lte.Config
	// dead marks carriers tombstoned by live ingest (Apply); they keep
	// their Carriers slot but serve no evidence and reject further
	// upserts. nil for generations installed by Load.
	dead   map[lte.CarrierID]bool
	shards []*Engine // indexed by market id; nil for carrier-less markets
	// refs counts the installed reference (1) plus every in-flight
	// request; when it reaches zero after retirement the generation is
	// drained.
	refs      atomic.Int64
	drainOnce sync.Once
	drained   chan struct{}
}

func (st *shardState) release() {
	if st.refs.Add(-1) == 0 {
		st.drainOnce.Do(func() { close(st.drained) })
	}
}

// NewSharded creates an empty sharded engine over the schema. opts apply
// to every shard; Options.Keep, when set, composes with each shard's
// market partition. Call Load before serving.
func NewSharded(schema *paramspec.Schema, opts Options) *ShardedEngine {
	se := &ShardedEngine{schema: schema, opts: opts}
	if opts.CacheEntries > 0 {
		se.cache = newRecCache(opts.CacheEntries)
	}
	return se
}

// CacheStats reports the memo cache's counters (zero-valued with
// Enabled=false when the engine was built without a cache).
func (se *ShardedEngine) CacheStats() CacheStats { return se.cache.stats() }

// Schema returns the engine's parameter schema.
func (se *ShardedEngine) Schema() *paramspec.Schema { return se.schema }

// Load trains one engine per market of the snapshot and installs the
// shard set atomically: requests arriving after Load returns (and any
// arriving after the internal swap) serve from the new generation, while
// requests already in flight finish on the old one. Load returns the new
// generation number once the previous generation has fully drained, so a
// successful return means no request is still reading retired state. On
// error the serving state is untouched.
func (se *ShardedEngine) Load(net *lte.Network, x2 *geo.Graph, cfg *lte.Config) (int64, error) {
	se.loadMu.Lock()
	defer se.loadMu.Unlock()
	defer obs.Since(shardLoadSeconds, time.Now())
	st := &shardState{gen: se.gen.Load() + 1, net: net, x2: x2, cfg: cfg, drained: make(chan struct{})}
	st.refs.Store(1)
	st.shards = make([]*Engine, len(net.Markets))
	carriers := make([]int, len(net.Markets))
	for i := range net.Carriers {
		if m := net.Carriers[i].Market; m >= 0 && m < len(carriers) {
			carriers[m]++
		}
	}
	trained := 0
	for m := range net.Markets {
		if carriers[m] == 0 {
			continue
		}
		opts := se.opts
		base, market := se.opts.Keep, m
		opts.Keep = func(id lte.CarrierID) bool {
			return net.Carriers[id].Market == market && (base == nil || base(id))
		}
		eng := New(se.schema, opts)
		if err := eng.Train(net, x2, cfg); err != nil {
			return 0, fmt.Errorf("core: training shard for market %d: %w", m, err)
		}
		st.shards[m] = eng
		trained++
	}
	if trained == 0 {
		return 0, fmt.Errorf("core: snapshot has no carriers in any of its %d markets", len(net.Markets))
	}
	se.gen.Store(st.gen)
	old := se.state.Swap(st)
	shardSwapsTotal.Inc()
	shardGeneration.Set(float64(st.gen))
	shardCount.Set(float64(trained))
	// The new generation is part of every cache key, so stale entries can
	// never hit; the reset just reclaims their memory immediately.
	se.cache.reset()
	if old != nil {
		old.release() // drop the installed reference; in-flight requests hold theirs
		<-old.drained
	}
	if o := se.observer(); o != nil {
		o.ObserveLoad(st.gen, net, x2, cfg)
	}
	return st.gen, nil
}

// acquire pins the current serving generation. The retry loop closes the
// race between loading the pointer and taking the reference: if the state
// was swapped out (or even fully drained) in between, the stale reference
// is dropped and the new state acquired instead.
func (se *ShardedEngine) acquire() (*shardState, error) {
	for {
		st := se.state.Load()
		if st == nil {
			return nil, fmt.Errorf("core: sharded engine not loaded")
		}
		if st.refs.Add(1) <= 1 {
			// The generation retired and drained before our Add landed;
			// undo it without re-closing the drain channel.
			st.refs.Add(-1)
			continue
		}
		if se.state.Load() == st {
			return st, nil
		}
		st.release()
	}
}

// Generation reports the serving snapshot generation (0 before Load).
func (se *ShardedEngine) Generation() int64 { return se.gen.Load() }

// Inventory returns the serving snapshot's network, X2 graph and
// generation. The returned structures are immutable serving state; they
// stay valid after a reload (the reload swaps in new ones).
func (se *ShardedEngine) Inventory() (*lte.Network, *geo.Graph, int64, error) {
	st, err := se.acquire()
	if err != nil {
		return nil, nil, 0, err
	}
	defer st.release()
	return st.net, st.x2, st.gen, nil
}

// ShardSizes reports the carriers served by each market shard in the
// current generation, indexed by market id (0 for untrained markets).
func (se *ShardedEngine) ShardSizes() ([]int, error) {
	st, err := se.acquire()
	if err != nil {
		return nil, err
	}
	defer st.release()
	sizes := make([]int, len(st.shards))
	for i := range st.net.Carriers {
		if m := st.net.Carriers[i].Market; m >= 0 && m < len(sizes) && st.shards[m] != nil {
			sizes[m]++
		}
	}
	return sizes, nil
}

// shardFor routes one carrier to its market's engine.
func (st *shardState) shardFor(c *lte.Carrier) (*Engine, error) {
	m := c.Market
	if m < 0 || m >= len(st.shards) {
		return nil, fmt.Errorf("core: carrier %d references market %d outside the %d loaded shards", c.ID, m, len(st.shards))
	}
	if st.shards[m] == nil {
		return nil, fmt.Errorf("core: market %d has no trained shard", m)
	}
	return st.shards[m], nil
}

// Recommend routes one carrier's recommendation to its market shard.
func (se *ShardedEngine) Recommend(c *lte.Carrier, neighbors []lte.CarrierID) ([]Recommendation, error) {
	return se.RecommendContext(context.Background(), c, neighbors)
}

// RecommendContext answers one carrier: a RecommendStream of one item.
func (se *ShardedEngine) RecommendContext(ctx context.Context, c *lte.Carrier, neighbors []lte.CarrierID) ([]Recommendation, error) {
	var res BatchResult
	err := se.RecommendStream(ctx, []BatchItem{{Carrier: c, Neighbors: neighbors}}, 1, func(_ int, r BatchResult) { res = r })
	if err != nil {
		return nil, err
	}
	return res.Recommendations, res.Err
}

// RecommendBatch answers a multi-market batch in one generation: the
// collected RecommendStream at the default chunk size. Every item's result
// lands in its request-order slot; routing failures (unknown market,
// untrained shard) are per-item errors, exactly like engine item errors.
func (se *ShardedEngine) RecommendBatch(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	results := make([]BatchResult, len(items))
	if err := se.RecommendStream(ctx, items, 0, func(i int, r BatchResult) { results[i] = r }); err != nil {
		return nil, err
	}
	return results, nil
}

// RecommendStream is the one serving path: it recommends for items in one
// pinned generation and emits each result through emit in strict request
// order as it becomes available — the engine side of NDJSON batch
// streaming. Each item is routed to its market shard and looked up in the
// cache; items that need computing join an identical in-flight
// computation (another request's, or an earlier item of this one) or lead
// their own, planned into per-market chunks of chunk items (0 means the
// default chunk size). Chunks launch in planning order, at most
// streamAhead in flight, so early results emit while the tail of a
// 10K-carrier sweep has not even started. emit runs on the calling
// goroutine; a slow consumer slows the emitter, never reorders output.
// The error is non-nil only when no generation is loaded.
func (se *ShardedEngine) RecommendStream(ctx context.Context, items []BatchItem, chunk int, emit func(i int, res BatchResult)) error {
	if chunk <= 0 {
		chunk = defaultStreamChunk
	}
	st, err := se.acquire()
	if err != nil {
		return err
	}
	defer st.release()
	kb := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(kb)
	o := se.observer()
	// Routing failures and cache hits ahead of the first item that needs
	// computing emit straight away: no plan exists until then, which keeps
	// the hit path allocation-free.
	var p *streamPlan
	for i := range items {
		var res BatchResult
		if p == nil {
			var done bool
			if res, done = se.lookup(st, &items[i], kb); !done {
				p = se.plan(ctx, st, items, i, chunk, kb)
			}
		}
		if p != nil {
			res = p.await(i - p.first)
		}
		if o != nil && res.Err == nil && len(res.Recommendations) > 0 {
			o.ObserveServed(items[i].Carrier.Market, items[i].Carrier, res.Recommendations)
		}
		emit(i, res)
	}
	return nil
}

// lookup routes it and, with the cache on, looks its key (built into kb)
// up. done reports that res is final: a routing failure or a cache hit.
func (se *ShardedEngine) lookup(st *shardState, it *BatchItem, kb *[]byte) (res BatchResult, done bool) {
	if _, err := st.shardFor(it.Carrier); err != nil {
		return BatchResult{Err: err}, true
	}
	if se.cache == nil {
		return res, false
	}
	*kb = appendCacheKey((*kb)[:0], st.gen, it.Carrier, it.Neighbors)
	if res.Recommendations, done = se.cache.get(*kb); done {
		se.cache.countHit()
	}
	return res, done
}

// streamPlan is one RecommendStream call's state from its first item that
// needs computing on: a slot per remaining item and the chunks computing
// them. Items are copied in, so the caller's slice never escapes.
type streamPlan struct {
	ctx   context.Context
	st    *shardState
	rc    *recCache
	first int
	slots []planSlot
}

// planSlot is one item of a plan. Exactly one of chunk and wait is set for
// an item whose answer was not final at planning time.
type planSlot struct {
	item  BatchItem
	res   BatchResult
	chunk *streamChunk // the chunk computing this item
	lead  *flight      // the flight this item leads, settled by its chunk
	wait  *flight      // another computation's flight this item joined
}

// streamChunk is one market's run of at most chunk computing items,
// answered by a single Engine.RecommendBatch fan-out.
type streamChunk struct {
	eng  *Engine
	idx  []int // slot indices
	done chan struct{}
}

// plan routes, looks up and groups items[first:], then starts launching
// the chunks.
func (se *ShardedEngine) plan(ctx context.Context, st *shardState, items []BatchItem, first, chunk int, kb *[]byte) *streamPlan {
	p := &streamPlan{ctx: ctx, st: st, rc: se.cache, first: first, slots: make([]planSlot, len(items)-first)}
	var chunks []*streamChunk
	open := make(map[int]*streamChunk)
	for k := range p.slots {
		s := &p.slots[k]
		s.item = items[first+k]
		var done bool
		if s.res, done = se.lookup(st, &s.item, kb); done {
			continue
		}
		if p.rc != nil {
			f, lead := p.rc.join(string(*kb))
			if !lead {
				s.wait = f
				continue
			}
			// Re-check as leader: a flight that settled between the miss
			// and the join left its entry behind, and counting that as a
			// hit keeps "N concurrent identical requests -> exactly one
			// computation" exact rather than approximate.
			if recs, ok := p.rc.get(*kb); ok {
				p.rc.countHit()
				p.rc.settle(f, recs, nil)
				s.res.Recommendations = recs
				continue
			}
			s.lead = f
		}
		m := s.item.Carrier.Market
		c := open[m]
		if c == nil || len(c.idx) >= chunk {
			c = &streamChunk{eng: st.shards[m], done: make(chan struct{})}
			open[m] = c
			chunks = append(chunks, c)
		}
		c.idx = append(c.idx, k)
		s.chunk = c
	}
	// Acquiring the slot before each chunk starts keeps the launch order
	// deterministic.
	go func() {
		sem := make(chan struct{}, streamAhead)
		for _, c := range chunks {
			sem <- struct{}{}
			go func(c *streamChunk) {
				defer func() { <-sem }()
				p.run(c)
			}(c)
		}
	}()
	return p
}

// run computes one chunk, then settles the flights its items lead: the
// cache fills and every joined request is released as soon as the chunk
// lands.
func (p *streamPlan) run(c *streamChunk) {
	defer close(c.done)
	sub := make([]BatchItem, len(c.idx))
	for j, k := range c.idx {
		sub[j] = p.slots[k].item
	}
	res, err := c.eng.RecommendBatch(p.ctx, sub)
	for j, k := range c.idx {
		s := &p.slots[k]
		if err != nil {
			s.res.Err = err
		} else {
			s.res = res[j]
		}
		if s.lead != nil {
			p.rc.countMiss()
			p.rc.settle(s.lead, s.res.Recommendations, s.res.Err)
		}
	}
}

// await blocks until slot k's answer is final and returns it. A follower
// whose leader failed computes on its own rather than inheriting the
// failure, so one cancelled request cannot poison the requests that piled
// up behind it.
func (p *streamPlan) await(k int) BatchResult {
	s := &p.slots[k]
	switch {
	case s.chunk != nil:
		<-s.chunk.done
	case s.wait != nil:
		<-s.wait.done
		if s.wait.err == nil {
			p.rc.countShared()
			s.res.Recommendations = s.wait.recs
		} else {
			p.rc.countMiss()
			eng := p.st.shards[s.item.Carrier.Market]
			s.res.Recommendations, s.res.Err = eng.RecommendContext(p.ctx, s.item.Carrier, s.item.Neighbors)
		}
	}
	return s.res
}
