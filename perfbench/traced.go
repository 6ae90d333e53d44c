package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"auric/internal/core"
	"auric/internal/dataset"
	"auric/internal/health"
	"auric/internal/journal"
	"auric/internal/learn"
	"auric/internal/learn/cf"
	"auric/internal/lte"
	"auric/internal/obs"
	"auric/internal/snapshot"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's base
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int64  `json:"req"`    // request id shared by a request's spans
	// Attrs are counts measured at the span: allocations, carriers, the
	// relaxation level a vote settled at, models patched.
	Attrs map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps every span in memory until the run writes them out.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(name string, parent int, req int64) int {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// set attaches a count to span i.
func (t *tracer) set(i int, key string, v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[i].Attrs == nil {
		t.spans[i].Attrs = make(map[string]int64, 2)
	}
	t.spans[i].Attrs[key] = v
}

// timed records fn as one span and returns its index.
func (t *tracer) timed(name string, parent int, req int64, fn func()) int {
	i := t.begin(name, parent, req)
	fn()
	t.end(i)
	return i
}

// selfTimes returns, per span, its duration minus the part of it that its
// child spans cover.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			st, en := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if en > st {
				covered += en - st
				reach = en
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// auricdHealth mirrors auricd's default -health-* flags.
var auricdHealth = health.Config{
	WindowSize: 2048, MinWindow: 256, MaxPSI: 0.25, MaxUnsupported: 0.5,
	MaxDisagreement: 0.02, ShadowProbes: 64,
}

// auricdCacheEntries is auricd's default -cache-entries.
const auricdCacheEntries = 4096

// inproc is the traced in-process twin of one auricd: the same snapshot,
// engine options, health tracker and delta journal.
type inproc struct {
	t       *tracer
	w       *world
	net     *lte.Network
	eng     *core.ShardedEngine
	health  *health.Tracker
	journal *journal.Journal
	jdir    string
	// engineAllocs counts heap allocations during the cache-off probe.
	engineAllocs uint64
	failed       int64
	errs         []error
	mu           sync.Mutex
}

func (ip *inproc) fail(err error) {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	ip.failed++
	if len(ip.errs) < 5 {
		ip.errs = append(ip.errs, err)
	}
}

// heapAllocs reads the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func heapLive() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle also empties sync.Pools
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func runTraced(o options) (*result, error) {
	w, err := loadWorld(o.cache, o.seed)
	if err != nil {
		return nil, err
	}
	// The HTTP side runs first and alone: it gives the latency each
	// in-process request is paired with, and the schedule the in-process
	// replay follows.
	s := &session{w: w}
	if err := s.drive(o, 1); err != nil {
		return nil, err
	}
	res := &result{attempted: s.l.attempted.Load(), failed: s.l.failed.Load()}
	checkErr := s.l.errors()
	if s.l.died.Load() {
		checkErr = fmt.Errorf("auricd exited mid-run: %v", checkErr)
	}
	if checkErr == nil {
		checkErr = s.checkProbes(o.cache)
	}
	if checkErr != nil {
		res.note("FAILED: %v", checkErr)
		return res, nil
	}

	t := newTracer()
	ip := &inproc{t: t, w: w}
	if err := ip.setUp(o); err != nil {
		return nil, err
	}
	defer func() {
		ip.journal.Close()
		os.RemoveAll(ip.jdir)
	}()
	ip.ingestProbe().drain()
	before := ip.eng.CacheStats()
	ip.replay(o, s)
	after := ip.eng.CacheStats()
	ip.emptyCache()
	heapFull, entries := ip.cacheProbe(o)
	if err := ip.engineProbe(o); err != nil {
		return nil, err
	}
	ip.cfProbe(o)

	path := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := t.write(path); err != nil {
		return nil, err
	}
	res.attempted += int64(len(t.spans))
	res.failed += ip.failed
	if len(ip.errs) > 0 {
		res.note("FAILED in process: %v", ip.errs)
	}
	res.correct = res.failed == 0
	ip.report(res, o, s, before, after, heapFull, entries)
	res.note("spans written to %s", path)
	return res, nil
}

// setUp repeats auricd's start-up in process, one span per layer: snapshot
// decode, sharded load; then, outside any request, the per-(market,
// parameter) training-set build and CF fit that Load runs on its workers,
// serially so each call is timed on its own.
func (ip *inproc) setUp(o options) error {
	t, w := ip.t, ip.w
	var (
		net *lte.Network
		cfg *lte.Config
		err error
	)
	t.timed("snapshot.read", -1, -1, func() { net, cfg, err = snapshot.Load(w.snapPath) })
	if err != nil {
		return err
	}
	ip.net = net
	ip.eng = core.NewSharded(cfg.Schema(), core.Options{Local: true, CacheEntries: auricdCacheEntries})
	ip.health = health.New(obs.New(), auricdHealth)
	ip.health.Bind(ip.eng)
	var gen int64
	t.timed("core.load", -1, -1, func() { gen, err = ip.eng.Load(net, w.x2, cfg) })
	if err != nil {
		return err
	}
	ip.health.ObserveLoad(gen, net, w.x2, cfg)

	schema := cfg.Schema()
	for m := range net.Markets {
		market := m
		b := dataset.NewBuilder(net, w.x2, func(id lte.CarrierID) bool { return net.Carriers[id].Market == market })
		for pi := 0; pi < schema.Len(); pi++ {
			var tab *dataset.Table
			t.timed("dataset.labeled", -1, -1, func() { tab = b.Labeled(cfg, pi) })
			if tab.Len() == 0 {
				continue
			}
			a0 := heapAllocs()
			i := t.timed("cf.fit", -1, -1, func() { _, err = cf.New().Fit(tab) })
			if err != nil {
				return err
			}
			t.set(i, "allocs", int64(heapAllocs()-a0))
		}
	}
	jdir := filepath.Join(o.dir, fmt.Sprintf("journal-traced-%s-seed%d", o.workload, o.seed))
	if err := os.RemoveAll(jdir); err != nil {
		return err
	}
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return err
	}
	ip.jdir = jdir
	ip.journal, _, err = journal.Open(filepath.Join(jdir, "journal.jsonl"))
	return err
}

// reqID names request idx of connection conn.
func reqID(conn, idx int) int64 { return int64(conn)<<32 | int64(idx) }

// replay issues the HTTP run's recommend requests in process, each no
// earlier than its HTTP send offset, so the cache evolves on the same
// timeline.
func (ip *inproc) replay(o options, s *session) {
	type due struct {
		idx int
		at  time.Duration
	}
	byConn := map[int][]due{}
	for _, op := range s.l.ops {
		if op.kind == "recommend" {
			byConn[op.conn] = append(byConn[op.conn], due{op.idx, op.due.Sub(s.start)})
		}
	}
	start := time.Now()
	wait := func(at time.Duration) {
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
	}
	var wg sync.WaitGroup
	for conn, list := range byConn {
		sort.Slice(list, func(i, j int) bool { return list[i].idx < list[j].idx })
		wg.Add(1)
		go func(conn int, list []due) {
			defer wg.Done()
			if o.workload == "sweep" {
				for _, d := range list {
					wait(d.at)
					ip.sweepRequest(conn, d.idx, sweepBatchIDs(ip.w, conn, 2, d.idx))
				}
				return
			}
			seq := newLaunchSeq(ip.w, conn)
			next := 0
			for _, d := range list {
				var id lte.CarrierID
				for ; next <= d.idx; next++ {
					id = seq.next()
				}
				wait(d.at)
				ip.launchRequest(conn, d.idx, id)
			}
		}(conn, list)
	}
	wg.Wait()
}

func (ip *inproc) launchRequest(conn, idx int, id lte.CarrierID) {
	t, w := ip.t, ip.w
	req := reqID(conn, idx)
	root := t.begin("request", -1, req)
	c := &ip.net.Carriers[id]
	var (
		recs []core.Recommendation
		err  error
	)
	t.timed("core.recommend", root, req, func() {
		recs, err = ip.eng.RecommendContext(context.Background(), c, w.x2.CarrierNeighbors(id))
	})
	if err == nil {
		t.timed("health.observe", root, req, func() { ip.health.ObserveServed(c.Market, c, recs) })
	}
	t.end(root)
	if err == nil && len(recs) != w.expectedRecs(id, true) {
		err = fmt.Errorf("carrier %d: %d recommendations, want %d", id, len(recs), w.expectedRecs(id, true))
	}
	if err != nil {
		ip.fail(err)
	}
}

func (ip *inproc) sweepRequest(conn, idx int, ids []lte.CarrierID) {
	t, w := ip.t, ip.w
	req := reqID(conn, idx)
	root := t.begin("request", -1, req)
	items := make([]core.BatchItem, len(ids))
	for i, id := range ids {
		items[i] = core.BatchItem{Carrier: &ip.net.Carriers[id]}
	}
	want := w.expectedRecs(0, false)
	got := 0
	rec := t.begin("core.recommend", root, req)
	err := ip.eng.RecommendStream(context.Background(), items, 0, func(i int, r core.BatchResult) {
		if r.Err != nil || len(r.Recommendations) != want {
			ip.fail(fmt.Errorf("stream item %d: %d recommendations, want %d (%v)", i, len(r.Recommendations), want, r.Err))
			return
		}
		got++
		c := items[i].Carrier
		t.timed("health.observe", rec, req, func() { ip.health.ObserveServed(c.Market, c, r.Recommendations) })
	})
	t.end(rec)
	t.end(root)
	if err == nil && got != len(ids) {
		err = fmt.Errorf("stream answered %d of %d items", got, len(ids))
	}
	if err != nil {
		ip.fail(err)
	}
}

// ipChurner applies the churn schedule in process: ShardedEngine.Apply,
// the health tracker's apply hook, then the journal append auricd
// acknowledges after.
type ipChurner struct {
	ip    *inproc
	sched []mutation
	next  int // schedule position after the last step
	ids   map[int]lte.CarrierID
}

func (ip *inproc) newChurner() *ipChurner {
	return &ipChurner{ip: ip, sched: churnSchedule(1 << 16), ids: make(map[int]lte.CarrierID)}
}

func (ch *ipChurner) step(pos int) {
	ch.next = pos + 1
	ip := ch.ip
	t, w := ip.t, ip.w
	m := ch.sched[pos]
	var (
		d    core.Delta
		wire []byte
	)
	if m.upsert {
		u := cloneUpsert(w, m.clone)
		wire, _ = json.Marshal(struct {
			Upserts []wireUpsert `json:"upserts"`
		}{[]wireUpsert{u}})
		c := w.net.Carriers[w.donors[m.clone%len(w.donors)]]
		c.ID = -1
		cfg := make(map[int]float64, len(u.Config))
		for _, pi := range w.schema.Singular() {
			cfg[pi] = u.Config[w.schema.At(pi).Name]
		}
		d.Upserts = []core.Upsert{{Carrier: c, Config: cfg}}
	} else {
		id, ok := ch.ids[m.clone]
		if !ok {
			return
		}
		wire, _ = json.Marshal(struct {
			Tombstones []int `json:"tombstones"`
		}{[]int{int(id)}})
		d.Tombstones = []lte.CarrierID{id}
	}
	req := int64(-1 - pos)
	root := t.begin("ingest", -1, req)
	var (
		res core.ApplyResult
		err error
	)
	ap := t.timed("core.apply", root, req, func() { res, err = ip.eng.Apply(d) })
	if err == nil {
		t.set(ap, "patched", int64(res.Patched))
		t.set(ap, "refit", int64(res.Refit))
		t.timed("health.observe_apply", root, req, func() {
			net, _, _, _ := ip.eng.Inventory()
			ip.health.ObserveApply(res.Generation, net, res.Assigned, d.Tombstones)
		})
		t.timed("journal.append", root, req, func() { _, err = ip.journal.Append("delta", wire) })
	}
	t.end(root)
	if err != nil {
		ip.fail(fmt.Errorf("mutation %d: %w", pos, err))
		return
	}
	if m.upsert {
		ch.ids[m.clone] = res.Assigned[0]
		net, _, _, _ := ip.eng.Inventory()
		ip.net = net
	} else {
		delete(ch.ids, m.clone)
	}
}

// ingestProbe repeats the HTTP run's ingest probe on the fresh engine.
func (ip *inproc) ingestProbe() *ipChurner {
	ch := ip.newChurner()
	for pos := 0; pos < probeWarm+probeOps; pos++ {
		ch.step(pos)
	}
	return ch
}

// emptyCache applies one clone and its tombstone outside any span: every
// Apply starts the cache cold, which the cache probe needs.
func (ip *inproc) emptyCache() {
	c := ip.w.net.Carriers[ip.w.donors[0]]
	c.ID = -1
	res, err := ip.eng.Apply(core.Delta{Upserts: []core.Upsert{{Carrier: c}}})
	if err == nil {
		_, err = ip.eng.Apply(core.Delta{Tombstones: res.Assigned})
	}
	if err != nil {
		ip.fail(fmt.Errorf("emptying the cache: %w", err))
	}
	ip.net, _, _, _ = ip.eng.Inventory()
}

// drain tombstones every clone still live.
func (ch *ipChurner) drain() {
	for pos := ch.next; len(ch.ids) > 0 && pos < len(ch.sched); pos++ {
		if !ch.sched[pos].upsert {
			ch.step(pos)
		}
	}
}

// workloadItems is a fixed workload-shaped sample: the hot carriers with
// pair-wise answers for launch, the first sweep batches for sweep.
func (ip *inproc) workloadItems(o options) []core.BatchItem {
	w := ip.w
	var items []core.BatchItem
	if o.workload == "sweep" {
		for _, id := range w.perm[:8*sweepBatch] {
			items = append(items, core.BatchItem{Carrier: &ip.net.Carriers[id]})
		}
		return items
	}
	for _, id := range w.hot {
		items = append(items, core.BatchItem{Carrier: &ip.net.Carriers[id], Neighbors: w.x2.CarrierNeighbors(id)})
	}
	return items
}

// cacheProbe measures the cache on its own once the last mutation has left
// it empty: fill it with the workload sample, weigh the heap growth, then
// time a hit for every entry. It returns the filled heap delta and entries.
func (ip *inproc) cacheProbe(o options) (int64, int) {
	t := ip.t
	items := ip.workloadItems(o)
	h0 := heapLive()
	for _, it := range items {
		if _, err := ip.eng.RecommendContext(context.Background(), it.Carrier, it.Neighbors); err != nil {
			ip.fail(err)
		}
	}
	h1 := heapLive()
	st := ip.eng.CacheStats()
	for i, it := range items {
		t.timed("cache.hit", -1, int64(i), func() {
			if _, err := ip.eng.RecommendContext(context.Background(), it.Carrier, it.Neighbors); err != nil {
				ip.fail(err)
			}
		})
	}
	if got := ip.eng.CacheStats().Hits - st.Hits; got != uint64(len(items)) {
		ip.fail(fmt.Errorf("cache probe: %d hits of %d repeats", got, len(items)))
	}
	return int64(h1) - int64(h0), st.Entries
}

// engineProbe times the serve path with the cache off: a second
// ShardedEngine, trained on the same snapshot with no cache, answers the
// workload sample the way auricd calls it (RecommendStream for sweep
// batches, RecommendContext for launch requests), on as many goroutines as
// the workload has recommend connections.
func (ip *inproc) engineProbe(o options) error {
	w := ip.w
	eng := core.NewSharded(w.schema, core.Options{Local: true})
	if _, err := eng.Load(w.net, w.x2, w.cfg); err != nil {
		return err
	}
	items := ip.workloadItems(o)
	conns, per := 2, 1 // launch requests are single carriers
	if o.workload == "sweep" {
		per = sweepBatch
	}
	ctx := context.Background()
	// A first pass fills the fresh engine's lazy state (X2 neighborhood
	// memos, scratch pools), which the replayed engine had long filled.
	for _, it := range items {
		if _, err := eng.RecommendContext(ctx, it.Carrier, it.Neighbors); err != nil {
			return err
		}
	}
	a0 := heapAllocs()
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := g; r*per < len(items); r += conns {
				batch := items[r*per : min((r+1)*per, len(items))]
				var got [][]core.Recommendation
				var err error
				i := ip.t.timed("core.engine", -1, int64(r), func() {
					if per == 1 {
						var recs []core.Recommendation
						recs, err = eng.RecommendContext(ctx, batch[0].Carrier, batch[0].Neighbors)
						got = append(got, recs)
						return
					}
					err = eng.RecommendStream(ctx, batch, 0, func(_ int, res core.BatchResult) {
						got = append(got, res.Recommendations)
					})
				})
				ip.t.set(i, "carriers", int64(len(batch)))
				if err != nil {
					ip.fail(err)
					continue
				}
				for j, it := range batch {
					if want := w.expectedRecs(it.Carrier.ID, it.Neighbors != nil); j >= len(got) || len(got[j]) != want {
						ip.fail(fmt.Errorf("engine probe carrier %d: wrong answer count, want %d", it.Carrier.ID, want))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	ip.engineAllocs = heapAllocs() - a0
	return nil
}

// cfProbe times every CF prediction the workload sample needs, calling the
// fitted models the way the engine does: the query encoded, the carrier's
// one-hop X2 scope precomputed per model, then PredictCodes.
func (ip *inproc) cfProbe(o options) {
	t, w := ip.t, ip.w
	singular, pair := w.schema.Singular(), w.schema.PairWise()
	for _, it := range ip.workloadItems(o) {
		c := it.Carrier
		eng, net, _, err := ip.eng.MarketEngine(c.Market)
		if err != nil {
			ip.fail(err)
			continue
		}
		var scopeIDs []lte.CarrierID
		for _, id := range w.x2.CarriersNearENodeB(net, c.ENodeB, 1) {
			if id != c.ID {
				scopeIDs = append(scopeIDs, id)
			}
		}
		attrs := c.AttributeVector()
		predict := func(pi int, row []string) {
			m := eng.Model(pi)
			cm, ok1 := m.(learn.CodesModel)
			ss, ok2 := m.(learn.SiteScoper)
			if !ok1 || !ok2 {
				ip.fail(fmt.Errorf("model %d is not a scoped CF model", pi))
				return
			}
			codes := cm.EncodeRow(row)
			sc := ss.ScopeFrom(scopeIDs)
			i := t.begin("cf.predict", -1, -1)
			p := cm.PredictCodes(codes, row, sc)
			t.end(i)
			t.set(i, "level", int64(p.Diag.Level))
		}
		for _, pi := range singular {
			predict(pi, attrs)
		}
		for _, nb := range it.Neighbors {
			row := append(append([]string(nil), attrs...), net.Carriers[nb].AttributeVector()...)
			for _, pi := range pair {
				predict(pi, row)
			}
		}
	}
}

// report turns the spans into the per-layer metrics.
func (ip *inproc) report(res *result, o options, s *session, before, after core.CacheStats, heapFull int64, entries int) {
	spans := ip.t.spans
	self := selfTimes(spans)
	type agg struct {
		n     int
		self  int64     // nanoseconds
		durs  []float64 // microseconds
		attrs map[string]float64
		hist  map[int64]int // "level" attribute histogram
	}
	by := map[string]*agg{}
	for i, sp := range spans {
		a := by[sp.Name]
		if a == nil {
			a = &agg{attrs: map[string]float64{}, hist: map[int64]int{}}
			by[sp.Name] = a
		}
		a.n++
		a.self += self[i]
		a.durs = append(a.durs, float64(sp.End-sp.Start)/1e3)
		for k, v := range sp.Attrs {
			a.attrs[k] += float64(v)
			if k == "level" {
				a.hist[v]++
			}
		}
	}
	get := func(name string) *agg {
		if a := by[name]; a != nil {
			return a
		}
		return &agg{attrs: map[string]float64{}, hist: map[int64]int{}}
	}
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	per := func(x float64, n int) float64 { return x / float64(max(n, 1)) }

	// Set-up layers.
	res.add("snapshot.read_s", sum(get("snapshot.read").durs)/1e6, "s")
	res.add("core.load_s", sum(get("core.load").durs)/1e6, "s")
	res.add("dataset.labeled_s", sum(get("dataset.labeled").durs)/1e6, "s")
	fit := get("cf.fit")
	res.add("cf.fit_s", sum(fit.durs)/1e6, "s")
	res.add("cf.fit_allocs", per(fit.attrs["allocs"], fit.n), "count")

	// Cache, over the replay and then probed on its own.
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	hitRatio := hits / max(hits+misses, 1)
	hitUS := median(get("cache.hit").durs)
	res.add("cache.hit_ratio", hitRatio, "ratio")
	res.add("cache.hit_us", hitUS, "us")
	res.add("cache.bytes_per_entry", per(float64(heapFull), entries), "bytes")

	// Engine with the cache off.
	eng := get("core.engine")
	carriers := int(eng.attrs["carriers"])
	engUS := per(sum(eng.durs), carriers)
	jobs := 0
	items := ip.workloadItems(o)
	for _, it := range items {
		jobs += ip.w.expectedRecs(it.Carrier.ID, it.Neighbors != nil)
	}
	res.add("engine.us_per_carrier", engUS, "us")
	res.add("engine.jobs_per_carrier", per(float64(jobs), len(items)), "count")
	res.add("engine.allocs_per_carrier", per(float64(ip.engineAllocs), carriers), "count")

	// CF ladder.
	pred := get("cf.predict")
	res.add("cf.predict_us", per(sum(pred.durs), pred.n), "us")
	shares := map[string]int{}
	for lvl, n := range pred.hist {
		switch {
		case lvl < 0:
			shares["fallback"] += n
		case lvl >= 3:
			shares["3plus"] += n
		default:
			shares[fmt.Sprint(lvl)] += n
		}
	}
	for _, k := range []string{"0", "1", "2", "3plus", "fallback"} {
		res.add("cf.level_share."+k, per(float64(shares[k]), pred.n), "ratio")
	}

	// Serving path: each HTTP window request paired with its in-process
	// replay, layer self times summed over the replay's span tree.
	root := make([]int, len(spans)) // span -> its root
	for i, sp := range spans {
		root[i] = i
		if sp.Parent >= 0 {
			root[i] = root[sp.Parent]
		}
	}
	tree := map[int][]int{}
	reqRoot := map[int64]int{}
	for i, sp := range spans {
		if sp.Name == "request" {
			reqRoot[sp.Req] = i
		} else if r := root[i]; spans[r].Name == "request" {
			tree[r] = append(tree[r], i)
		}
	}
	layer := map[string]float64{} // microseconds
	var httpUS, inUS, bytes float64
	paired := 0
	for _, op := range s.l.window("recommend", s.t0, s.t1) {
		r, ok := reqRoot[reqID(op.conn, op.idx)]
		if !ok {
			continue
		}
		paired += op.carriers
		httpUS += float64(op.latency()) / 1e3
		inUS += float64(spans[r].End-spans[r].Start) / 1e3
		bytes += float64(op.bytes)
		layer["request"] += float64(self[r]) / 1e3
		for _, i := range tree[r] {
			layer[spans[i].Name] += float64(self[i]) / 1e3
		}
	}
	auricdSelf := per(httpUS-inUS, paired)
	res.add("core.recommend_us_per_carrier", per(layer["core.recommend"], paired), "us")
	res.add("health.observe_us_per_carrier", per(layer["health.observe"], paired), "us")
	res.add("auricd.self_us_per_carrier", auricdSelf, "us")
	res.add("auricd.resp_bytes_per_carrier", per(bytes, paired), "bytes")

	// Write path.
	apply := get("core.apply")
	res.add("apply.ms", median(apply.durs)/1e3, "ms")
	res.add("apply.models_patched", per(apply.attrs["patched"], apply.n), "count")
	res.add("apply.models_refit", per(apply.attrs["refit"], apply.n), "count")
	res.add("journal.append_ms", median(get("journal.append").durs)/1e3, "ms")

	// The sum check: the layers measured on their own, weighted by how the
	// workload used the cache, against the end-to-end time per carrier.
	layerSum := auricdSelf + per(layer["request"]+layer["health.observe"], paired) +
		hitRatio*hitUS + (1-hitRatio)*engUS
	res.add("trace.layer_sum_us_per_carrier", layerSum, "us")
	res.add("trace.e2e_us_per_carrier", per(httpUS, paired), "us")

	res.note("traced run: workload=%s seed=%d, %d carriers paired with the HTTP window", o.workload, o.seed, paired)
	res.note("%-22s %8s %14s %12s", "span", "count", "self total ms", "self mean us")
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := by[n]
		res.note("%-22s %8d %14.3f %12.2f", n, a.n, float64(a.self)/1e6, float64(a.self)/1e3/float64(a.n))
	}
}
