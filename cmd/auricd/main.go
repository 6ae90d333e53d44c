// Command auricd serves configuration recommendations over HTTP, the way
// Auric is consumed inside the SmartLaunch automation (Sec 5).
//
// It generates (or loads, with -load) a network snapshot and trains one
// local collaborative-filtering engine per market — the sharded serving
// shape of the paper's 28-market deployment. Requests route to their
// carrier's market shard, and snapshots reload with zero downtime: a new
// shard set trains in the background, an atomic pointer swap makes it
// live, and in-flight requests drain on the old generation.
//
//	GET    /healthz               -> ok
//	GET    /v1/network            -> network summary JSON
//	GET    /v1/carriers/{id}      -> carrier attributes JSON
//	POST   /v1/carriers           -> live carrier upsert (single or batch)
//	DELETE /v1/carriers/{id}      -> tombstone a carrier
//	GET    /v1/shards             -> per-market shard layout + generation
//	POST   /v1/recommend          -> recommendations for a carrier
//	POST   /v1/reload             -> retrain + swap the shard set
//	POST   /v1/compact            -> fold the delta journal into a snapshot
//	GET    /metrics               -> Prometheus text exposition
//	GET    /debug/traces          -> recent + slow request traces JSON
//	       /debug/pprof/...       -> net/http/pprof (with -pprof)
//
// The ingest routes track a live network between snapshots: upserts and
// tombstones patch the affected parameter models in place instead of
// retraining (see ingest.go and DESIGN.md). With -journal every accepted
// mutation is appended to an fsynced JSONL delta journal before it is
// acknowledged and replayed over the latest snapshot on startup, so a
// crash loses nothing; POST /v1/compact (or the journal exceeding
// -journal-max-bytes) folds the journal into <journal>.snapshot.
//
// SIGHUP triggers the same reload as POST /v1/reload. Every request is
// traced (internal/trace): the response carries a W3C traceparent header,
// sampled requests record a span tree served at /debug/traces, and with
// -audit-log each recommendation value served is appended to a JSONL
// audit log joined to its trace by trace id.
//
// The recommend body identifies either an existing carrier by id, or a new
// carrier by eNodeB + frequency:
//
//	{"carrier": 123}
//	{"enodeb": 45, "frequencyMHz": 1900}
//
// A JSON array of such objects requests a batch: every item is answered
// in its own slot of the "results" array (recommendations or a per-item
// "error"), so one bad item never fails its siblings, and all valid items
// share the engine fan-out of their market shard. With
// "Accept: application/x-ndjson" a batch streams instead: one JSON object
// per line, flushed per result in request order as each carrier
// completes, so a 10K-carrier sweep never buffers the whole response.
// One handler serves all three forms with one engine call
// (ShardedEngine.RecommendStream); a single object is a batch of one, and
// only the response writer differs between forms.
//
// Errors are JSON objects of the form {"error": "..."}. POST bodies over
// 16 MiB are answered 413 before decoding. The server runs with explicit
// read/write timeouts and drains in-flight requests on SIGINT/SIGTERM
// before exiting. OPERATIONS.md documents every endpoint, flag and
// exported metric.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"auric"
	"auric/internal/audit"
	"auric/internal/health"
	"auric/internal/journal"
	"auric/internal/obs"
	"auric/internal/rng"
	"auric/internal/snapshot"
	"auric/internal/trace"
)

type server struct {
	schema *auric.Schema
	engine *auric.ShardedEngine
	// source rebuilds the engine's inputs for reloads: from the -load
	// snapshot file in snapshot mode, from the generated world otherwise.
	// It must be safe to call repeatedly.
	source func() (*auric.Network, *auric.X2Graph, *auric.Config, error)
	// workers is the per-shard worker pool size restore passes to the
	// engine it bootstraps.
	workers int
	// cacheEntries sizes the engine's generation-keyed recommendation
	// memo cache (0 disables it).
	cacheEntries int
	// reloadMu serializes every state mutation: snapshot reloads (HTTP and
	// SIGHUP), live ingest, and journal compaction. Serving never takes it.
	reloadMu sync.Mutex
	// journal, when non-nil, records every accepted ingest delta before it
	// is acknowledged (see ingest.go); snapPath is where compaction folds
	// it (<journal>.snapshot) and journalMax the size that triggers an
	// automatic fold.
	journal    *journal.Journal
	snapPath   string
	journalMax int64
	// world is present when the network was generated in-process; it
	// enables richer new-carrier synthesis. Snapshot-served networks run
	// with world == nil and derive new carriers from a co-sited donor.
	world *auric.World
	// newRNG drives new-carrier synthesis sampling; it is shared across
	// request goroutines and guarded by newRNGMu.
	newRNG   *rng.RNG
	newRNGMu sync.Mutex
	// recommendations counts recommendation values served, by voting
	// support (auric_recommendations_total{supported}).
	recommendations *obs.CounterVec
	// batchSize distributes the carriers per POST /v1/recommend request
	// (auric_recommend_batch_size; the single-object form observes 1).
	batchSize *obs.Histogram
	// reloads counts snapshot reloads by trigger and outcome
	// (auric_reloads_total{trigger,ok}).
	reloads *obs.CounterVec
	// ingests counts live-ingest operations by kind and outcome
	// (auric_ingest_ops_total{kind,ok}); compactions counts journal folds
	// (auric_compactions_total{trigger,ok}).
	ingests     *obs.CounterVec
	compactions *obs.CounterVec
	// journalLag and journalBytes expose the journal's replay lag in
	// entries and its size in bytes.
	journalLag   *obs.Gauge
	journalBytes *obs.Gauge
	// audit, when non-nil, receives one record per recommendation value
	// served by POST /v1/recommend.
	audit *audit.Log
	// health scores each shard's served model (windows, drift, shadow
	// refits) behind GET /v1/health/model; nil only in focused tests.
	health *health.Tracker
}

// handlerOptions configure the HTTP surface built by newHandler.
type handlerOptions struct {
	registry  *obs.Registry // metrics registry served at /metrics
	tracer    *trace.Tracer // nil means an always-sample default tracer
	pprof     bool          // mount net/http/pprof under /debug/pprof/
	accessLog *log.Logger   // nil disables access logging
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8400", "listen address")
		seed      = flag.Uint64("seed", 1, "network generation seed")
		markets   = flag.Int("markets", 4, "number of markets")
		enbs      = flag.Int("enbs", 30, "eNodeBs per market")
		load      = flag.String("load", "", "serve a network snapshot (auricgen -save) instead of generating")
		workers   = flag.Int("workers", 0, "train/recommend worker pool size per shard (0 = all CPUs)")
		cacheSize = flag.Int("cache-entries", 4096, "recommendation sets memoized by the generation-keyed serving cache; reload and ingest start it cold (0 disables)")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		accessLog = flag.Bool("access-log", true, "log one structured line per request")

		traceSample = flag.Float64("trace-sample", 1.0, "fraction of requests recording a full span tree at /debug/traces (0..1)")
		traceSlow   = flag.Duration("trace-slow", 250*time.Millisecond, "requests at least this slow are always captured in the slow-trace ring (0 disables)")
		traceBuffer = flag.Int("trace-buffer", 256, "recent traces retained in memory")

		auditPath     = flag.String("audit-log", "", "append one JSONL record per recommendation value served (empty disables)")
		auditMaxBytes = flag.Int64("audit-max-bytes", 64<<20, "rotate the audit log before it exceeds this size")

		journalPath = flag.String("journal", "", "append-only delta journal making live ingest durable across restarts (empty: ingest applies in memory only)")
		journalMax  = flag.Int64("journal-max-bytes", 8<<20, "compact the journal into its snapshot when it exceeds this size (0 disables the size trigger)")

		healthWindow          = flag.Int("health-window", 2048, "served predictions retained per market shard for model-health scoring (0 disables the rolling window)")
		healthMinWindow       = flag.Int("health-min-window", 256, "window samples required before the unsupported-ratio threshold can degrade a shard")
		healthMaxPSI          = flag.Float64("health-max-psi", 0.25, "degrade a shard when any attribute column's drift PSI against its training base exceeds this (<= 0 disables)")
		healthMaxUnsupported  = flag.Float64("health-max-unsupported", 0.5, "degrade a shard when the unsupported share of its serving window exceeds this (<= 0 disables)")
		healthMaxDisagreement = flag.Float64("health-max-disagreement", 0.02, "degrade a shard when its last shadow-refit disagreement ratio exceeds this (<= 0 disables)")
		healthMaxLagOps       = flag.Int64("health-max-lag-ops", 0, "degrade every shard when the delta journal's replay lag exceeds this many entries (0 disables)")
		healthShadowEvery     = flag.Int64("health-shadow-every", 0, "run an automatic background shadow refit of a market after this many applied ingest ops (0 disables; GET /v1/health/model?refresh=shadow always works)")
		healthShadowProbes    = flag.Int("health-shadow-probes", 64, "carriers replayed per shadow-refit divergence check (< 0: the whole base cohort)")
	)
	flag.Parse()

	s := &server{newRNG: rng.New(*seed ^ 0xd), workers: *workers, cacheEntries: *cacheSize}
	// The tracker exists before restore so the initial Load lands as its
	// baseline; restore binds it to the engine it bootstraps.
	s.health = health.New(obs.Default(), health.Config{
		WindowSize:      *healthWindow,
		MinWindow:       *healthMinWindow,
		MaxPSI:          *healthMaxPSI,
		MaxUnsupported:  *healthMaxUnsupported,
		MaxDisagreement: *healthMaxDisagreement,
		MaxLagOps:       *healthMaxLagOps,
		ShadowEvery:     *healthShadowEvery,
		ShadowProbes:    *healthShadowProbes,
		OnTransition:    logHealthTransition,
	})
	if *auditPath != "" {
		al, err := audit.Open(*auditPath, audit.Options{MaxBytes: *auditMaxBytes})
		if err != nil {
			log.Fatal(err)
		}
		defer al.Close()
		s.audit = al
		log.Printf("auditing recommendations to %s (rotate at %d bytes)", *auditPath, *auditMaxBytes)
	}
	if *load != "" {
		path := *load
		s.source = func() (*auric.Network, *auric.X2Graph, *auric.Config, error) {
			net, cfg, err := snapshot.Load(path)
			if err != nil {
				return nil, nil, nil, err
			}
			return net, auric.BuildX2(net), cfg, nil
		}
		log.Printf("loading snapshot %s", path)
	} else {
		log.Printf("generating network (seed=%d, %d markets x %d eNodeBs)", *seed, *markets, *enbs)
		w := auric.SimulateNetwork(auric.NetworkOptions{Seed: *seed, Markets: *markets, ENodeBsPerMarket: *enbs})
		s.world = w
		s.source = func() (*auric.Network, *auric.X2Graph, *auric.Config, error) {
			return w.Net, w.X2, w.Current, nil
		}
	}
	var jentries []journal.Entry
	if *journalPath != "" {
		j, entries, err := journal.Open(*journalPath)
		if err != nil {
			log.Fatal(err)
		}
		defer j.Close()
		if j.Dropped() > 0 {
			log.Printf("auricd: journal %s: truncated %d corrupt tail bytes (crash footprint)", *journalPath, j.Dropped())
		}
		s.journal = j
		s.journalMax = *journalMax
		s.snapPath = *journalPath + ".snapshot"
		jentries = entries
		log.Printf("auricd: live ingest journal %s (%d entries to replay, compact at %d bytes into %s)",
			*journalPath, len(entries), *journalMax, s.snapPath)
	}
	start := time.Now()
	gen, err := s.restore(jentries)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("shard set ready: generation %d in %.2fs", gen, time.Since(start).Seconds())

	// SIGHUP reloads the snapshot with zero downtime, the operator's
	// signal-driven twin of POST /v1/reload.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if _, err := s.reload("sighup"); err != nil {
				log.Printf("auricd: SIGHUP reload failed: %v", err)
			}
		}
	}()

	obs.RegisterRuntimeMetrics(obs.Default())
	opts := handlerOptions{
		registry: obs.Default(),
		pprof:    *pprofOn,
		tracer: trace.New(trace.Options{
			SampleRate:    *traceSample,
			SlowThreshold: *traceSlow,
			Capacity:      *traceBuffer,
		}),
	}
	if *accessLog {
		opts.accessLog = log.Default()
	}
	if err := serve(*addr, newHandler(s, opts)); err != nil {
		log.Fatal(err)
	}
}

// reload retrains the shard set and swaps it in atomically. In journal
// mode it compacts first, folding every live-ingested delta into the
// snapshot so the reload rebuilds from it and loses nothing; without a
// journal it rebuilds from the configured source, reverting any in-memory
// ingest. Concurrent reload triggers serialize.
func (s *server) reload(trigger string) (int64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	start := time.Now()
	var (
		gen int64
		err error
	)
	if s.journal != nil {
		err = s.compactLocked(trigger)
	}
	if err == nil {
		gen, err = s.restore(nil)
	}
	if s.reloads != nil {
		s.reloads.With(trigger, strconv.FormatBool(err == nil)).Inc()
	}
	if err != nil {
		return 0, err
	}
	log.Printf("auricd: reload complete (trigger=%s): generation %d in %.2fs",
		trigger, gen, time.Since(start).Seconds())
	return gen, nil
}

// serve runs an explicit http.Server on addr with header/body timeouts
// and drains gracefully on SIGINT/SIGTERM. It listens before serving so
// the logged address is the bound one (supporting -addr :0 for smoke
// tests).
func serve(addr string, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveOn(ln, h)
}

func serveOn(ln net.Listener, h http.Handler) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{
		Handler: h,
		// A recommend call on a very large network can take seconds; the
		// write timeout bounds it generously while still shedding wedged
		// clients. The header timeout defeats slowloris-style clients.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("auricd listening on http://%s", ln.Addr())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		log.Printf("auricd: signal received, draining in-flight requests")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return err
		}
		log.Printf("auricd: shutdown complete")
		return nil
	}
}

// newHandler builds the full HTTP surface: routed handlers wrapped in
// per-route metrics, the /metrics exposition, optional pprof, and
// optional access logging — shared by main and the handler tests.
func newHandler(s *server, opts handlerOptions) http.Handler {
	reg := opts.registry
	if reg == nil {
		reg = obs.Default()
	}
	m := obs.NewHTTPMetrics(reg)
	tr := opts.tracer
	if tr == nil {
		tr = trace.New(trace.Options{SampleRate: 1})
	}
	s.recommendations = reg.CounterVec("auric_recommendations_total",
		"Recommendation values served by POST /v1/recommend, by voting support.", "supported")
	s.batchSize = reg.Histogram("auric_recommend_batch_size",
		"Carriers per POST /v1/recommend request (1 for the single-object form).",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384})
	s.reloads = reg.CounterVec("auric_reloads_total",
		"Snapshot reloads, by trigger (http, sighup) and outcome.", "trigger", "ok")
	s.ingests = reg.CounterVec("auric_ingest_ops_total",
		"Live-ingest operations via POST/DELETE /v1/carriers, by kind (upsert, tombstone) and outcome.", "kind", "ok")
	s.compactions = reg.CounterVec("auric_compactions_total",
		"Delta-journal compactions, by trigger (http, size, sighup) and outcome.", "trigger", "ok")
	s.journalLag = reg.Gauge("auric_journal_lag_ops",
		"Journal entries not yet folded into the compacted snapshot — the replay a restart would pay.")
	s.journalBytes = reg.Gauge("auric_journal_bytes",
		"Current delta journal size in bytes.")
	s.updateJournalGauges()

	mux := http.NewServeMux()
	// Trace inside the metrics wrapper: the root span covers the handler,
	// the histogram covers span bookkeeping too.
	handle := func(method, pattern string, h http.HandlerFunc) {
		mux.Handle(method+" "+pattern, m.Handler(pattern, tr.Middleware(pattern, h)))
	}
	route := func(method, pattern string, h http.HandlerFunc) {
		handle(method, pattern, h)
		// Fallback for every other method on a known path: JSON 405.
		// The method-qualified pattern above is more specific, so it
		// wins whenever the method matches.
		mux.Handle(pattern, m.Handler(pattern, methodNotAllowed(method)))
	}
	route("GET", "/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rw.Write([]byte("ok\n"))
	})
	route("GET", "/v1/network", s.handleNetwork)
	handle("GET", "/v1/carriers/", s.handleCarrier)
	handle("DELETE", "/v1/carriers/", s.handleCarrierDelete)
	mux.Handle("/v1/carriers/", m.Handler("/v1/carriers/", methodNotAllowed("GET, DELETE")))
	route("POST", "/v1/carriers", s.handleIngest)
	route("GET", "/v1/shards", s.handleShards)
	route("GET", "/v1/health/model", s.handleModelHealth)
	route("POST", "/v1/recommend", s.handleRecommend)
	route("POST", "/v1/reload", s.handleReload)
	route("POST", "/v1/compact", s.handleCompact)
	mux.Handle("GET /metrics", m.Handler("/metrics", reg.Handler()))
	mux.Handle("/metrics", m.Handler("/metrics", methodNotAllowed("GET")))
	// The trace inspection endpoint is not itself traced: reading the
	// rings should not push traces into them.
	mux.Handle("GET /debug/traces", m.Handler("/debug/traces", tr.TracesHandler()))
	mux.Handle("/debug/traces", m.Handler("/debug/traces", methodNotAllowed("GET")))
	// Unknown paths: JSON 404 under a shared route label so scraping
	// abuse cannot explode the label space.
	mux.Handle("/", m.HandlerFunc("other", func(rw http.ResponseWriter, _ *http.Request) {
		writeError(rw, http.StatusNotFound, "no such route")
	}))
	if opts.pprof {
		// pprof owns its sub-toolchain routing (Index serves the named
		// profiles); symbol accepts POST, so no method qualifiers here.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	var h http.Handler = mux
	if opts.accessLog != nil {
		h = obs.AccessLog(opts.accessLog, h)
	}
	return h
}

// inventory pins the serving snapshot for one request. All reads of the
// returned structures are consistent with one generation; the engine call
// that follows may land on a newer one, which is safe because carrier ids
// are stable across reloads of the same network.
func (s *server) inventory(rw http.ResponseWriter) (*auric.Network, *auric.X2Graph, int64, bool) {
	net, x2, gen, err := s.engine.Inventory()
	if err != nil {
		writeError(rw, http.StatusServiceUnavailable, err.Error())
		return nil, nil, 0, false
	}
	return net, x2, gen, true
}

func (s *server) handleNetwork(rw http.ResponseWriter, _ *http.Request) {
	net, _, gen, ok := s.inventory(rw)
	if !ok {
		return
	}
	writeJSON(rw, map[string]any{
		"markets":    len(net.Markets),
		"enodebs":    len(net.ENodeBs),
		"carriers":   len(net.Carriers),
		"generation": gen,
		"schema": map[string]int{
			"parameters": s.schema.Len(),
			"singular":   len(s.schema.Singular()),
			"pairwise":   len(s.schema.PairWise()),
		},
	})
}

// handleShards reports the serving shard layout: one entry per market
// with its carrier count, plus the snapshot generation — the operator's
// view of the partition behind /v1/recommend routing.
func (s *server) handleShards(rw http.ResponseWriter, _ *http.Request) {
	net, _, gen, ok := s.inventory(rw)
	if !ok {
		return
	}
	sizes, err := s.engine.ShardSizes()
	if err != nil {
		writeError(rw, http.StatusServiceUnavailable, err.Error())
		return
	}
	type shardInfo struct {
		Market   int    `json:"market"`
		Name     string `json:"name"`
		Carriers int    `json:"carriers"`
	}
	shards := make([]shardInfo, 0, len(sizes))
	for m, n := range sizes {
		name := ""
		if m < len(net.Markets) {
			name = net.Markets[m].Name
		}
		shards = append(shards, shardInfo{Market: m, Name: name, Carriers: n})
	}
	writeJSON(rw, map[string]any{
		"generation": gen,
		"shards":     shards,
	})
}

// handleReload retrains the shard set from the snapshot source and swaps
// it in with zero downtime — the HTTP twin of SIGHUP.
func (s *server) handleReload(rw http.ResponseWriter, _ *http.Request) {
	start := time.Now()
	gen, err := s.reload("http")
	if err != nil {
		writeError(rw, http.StatusInternalServerError, err.Error())
		return
	}
	net, _, _, ok := s.inventory(rw)
	if !ok {
		return
	}
	writeJSON(rw, map[string]any{
		"generation": gen,
		"carriers":   len(net.Carriers),
		"markets":    len(net.Markets),
		"seconds":    time.Since(start).Seconds(),
	})
}

func (s *server) handleCarrier(rw http.ResponseWriter, r *http.Request) {
	net, x2, _, ok := s.inventory(rw)
	if !ok {
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/carriers/")
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 || id >= len(net.Carriers) {
		writeError(rw, http.StatusNotFound, "unknown carrier")
		return
	}
	c := &net.Carriers[id]
	attrs := map[string]string{}
	names := attributeNames()
	for i, v := range c.AttributeVector() {
		attrs[names[i]] = v
	}
	writeJSON(rw, map[string]any{
		"id":         c.ID,
		"enodeb":     c.ENodeB,
		"face":       c.Face,
		"market":     c.Market,
		"attributes": attrs,
		"neighbors":  x2.CarrierNeighbors(c.ID),
	})
}

type recommendRequest struct {
	Carrier      optInt `json:"carrier"`
	ENodeB       optInt `json:"enodeb"`
	FrequencyMHz int    `json:"frequencyMHz"`
	// Pairwise includes pair-wise recommendations towards the carrier's
	// X2 neighbors.
	Pairwise bool `json:"pairwise"`
}

// optInt is an integer request field that records whether the body set
// it. It decodes in place: a *int field would cost encoding/json one
// allocation per decoded object, which for a batch is one per item.
type optInt struct {
	v   int
	set bool
}

// UnmarshalJSON accepts a JSON integer; null leaves the field unset, as it
// leaves a *int nil. Any other value fails with the type error
// encoding/json reports for an int field (the outer decoder adds the field
// name).
func (o *optInt) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	v, err := strconv.Atoi(string(b))
	if err != nil {
		return json.Unmarshal(b, new(int))
	}
	o.v, o.set = v, true
	return nil
}

// handleRecommend serves every form of POST /v1/recommend through one
// engine call: a single request object (the original API, response shape
// unchanged) is a batch of one, and an array of request objects is
// answered item by item. Only the response writer differs between forms.
// Batch items fail independently — a bad carrier id yields {"error": ...}
// in that item's slot while its siblings are still recommended — so one
// malformed entry never turns a 200 into a 400 for the rest of the batch.
// Batches with "Accept: application/x-ndjson" stream one entry per line,
// in request order, flushed per line, instead of buffering the response.
func (s *server) handleRecommend(rw http.ResponseWriter, r *http.Request) {
	reqs, many, ok := decodeOneOrMany[recommendRequest](rw, r)
	if !ok {
		return
	}
	net, x2, _, ok := s.inventory(rw)
	if !ok {
		return
	}
	s.observeBatchSize(len(reqs))
	entries := make([]recommendEntry, len(reqs))
	items := make([]auric.BatchItem, 0, len(reqs))
	itemOf := make([]int, 0, len(reqs)) // batch item -> request index
	for i, req := range reqs {
		carrier, neighbors, status, msg := s.resolveRecommend(net, x2, req)
		if status != 0 {
			if !many {
				writeError(rw, status, msg)
				return
			}
			entries[i] = recommendEntry{carrier: -1, err: msg}
			continue
		}
		entries[i].carrier = int(carrier.ID)
		items = append(items, auric.BatchItem{Carrier: carrier, Neighbors: neighbors})
		itemOf = append(itemOf, i)
	}
	// The root span's trace id joins the response, the span tree at
	// /debug/traces and the audit records (present at any sample rate).
	traceID := requestTraceID(r)

	// NDJSON writes each entry as soon as it and every entry before it are
	// final: one compact JSON object per line — the same shape as a
	// buffered "results" entry — flushed per line, from one pooled buffer.
	stream := many && wantsNDJSON(r)
	next := 0 // next entry to write when streaming
	var writeUpTo func(limit int)
	if stream {
		rw.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := rw.(http.Flusher)
		buf := bodyBufs.Get().(*[]byte)
		defer bodyBufs.Put(buf)
		writeUpTo = func(limit int) {
			for ; next < limit; next++ {
				e := &entries[next]
				if err := checkFinite(e.recs); err != nil {
					log.Printf("auricd: encoding entry: %v", err)
					*buf = append((*buf)[:0], "{\"carrier\":-1,\"error\":\"encoding entry\"}\n"...)
				} else {
					*buf = appendEntryLine((*buf)[:0], e)
				}
				rw.Write(*buf)
				// The line is on the wire: drop the reference so a long
				// stream does not pin every uncached answer until it ends.
				e.recs = nil
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
	}
	err := s.engine.RecommendStream(r.Context(), items, 0, func(bi int, res auric.BatchResult) {
		ri := itemOf[bi]
		if res.Err != nil {
			entries[ri].err = res.Err.Error()
		} else {
			entries[ri].recs = res.Recommendations
			s.recordServed(items[bi].Carrier, res.Recommendations, traceID)
		}
		if stream {
			// Resolution-failure entries queued before this one go first,
			// keeping the stream in request order.
			writeUpTo(ri + 1)
		}
	})
	switch {
	case err != nil && next > 0:
		// A stream that has committed its 200 simply ends short (the
		// client detects truncation by line count).
		log.Printf("auricd: NDJSON stream aborted after %d lines: %v", next, err)
	case err != nil:
		writeError(rw, http.StatusInternalServerError, err.Error())
	case stream:
		writeUpTo(len(entries)) // trailing resolution-failure entries
	case !many && entries[0].err != "":
		writeError(rw, http.StatusInternalServerError, entries[0].err)
	default:
		for i := range entries {
			if err := checkFinite(entries[i].recs); err != nil {
				writeEncodeFailure(rw, err)
				return
			}
		}
		writeBody(rw, func(b []byte) []byte {
			if many {
				return appendBatchJSON(b, entries, traceID)
			}
			return appendSingleJSON(b, entries[0].carrier, entries[0].recs, traceID)
		})
	}
}

// wantsNDJSON reports whether the client negotiated streaming batch
// responses via the Accept header.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// maxBodyBytes caps every POST body; a larger one is answered 413 before
// any of it is decoded.
const maxBodyBytes = 16 << 20

// decodeOneOrMany reads a request body holding one JSON object or a
// non-empty JSON array of them; many reports the array form. On failure it
// has already answered: 413 for a body over maxBodyBytes, 400 for
// malformed JSON or an empty array.
func decodeOneOrMany[T any](rw http.ResponseWriter, r *http.Request) (items []T, many, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(rw, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
		} else {
			writeError(rw, http.StatusBadRequest, "bad request: "+err.Error())
		}
		return nil, false, false
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	many = len(trimmed) > 0 && trimmed[0] == '['
	if many {
		err = json.Unmarshal(body, &items)
	} else {
		items = make([]T, 1)
		err = json.Unmarshal(body, &items[0])
	}
	if err != nil {
		writeError(rw, http.StatusBadRequest, "bad request: "+err.Error())
		return nil, false, false
	}
	if len(items) == 0 {
		writeError(rw, http.StatusBadRequest, "empty batch")
		return nil, false, false
	}
	return items, many, true
}

// resolveRecommend turns one request into the carrier to recommend for
// (and its pair-wise neighbors); a non-zero status reports a per-request
// resolution failure.
func (s *server) resolveRecommend(net *auric.Network, x2 *auric.X2Graph, req recommendRequest) (carrier *auric.Carrier, neighbors []auric.CarrierID, status int, msg string) {
	switch {
	case req.Carrier.set:
		id := req.Carrier.v
		if id < 0 || id >= len(net.Carriers) {
			return nil, nil, http.StatusNotFound, "unknown carrier"
		}
		carrier = &net.Carriers[id]
		if req.Pairwise {
			neighbors = x2.CarrierNeighbors(carrier.ID)
		}
	case req.ENodeB.set:
		enb := req.ENodeB.v
		if enb < 0 || enb >= len(net.ENodeBs) {
			return nil, nil, http.StatusNotFound, "unknown eNodeB"
		}
		nc := s.newCarrierAt(net, auric.ENodeBID(enb))
		if nc == nil {
			return nil, nil, http.StatusConflict, "eNodeB hosts no carriers to derive from"
		}
		if req.FrequencyMHz != 0 {
			nc.FrequencyMHz = req.FrequencyMHz
		}
		carrier = nc
	default:
		return nil, nil, http.StatusBadRequest, "specify carrier or enodeb"
	}
	return carrier, neighbors, 0, ""
}

// recordServed feeds the per-value serving counter and the audit log for
// one carrier's answer — shared by the single, batch and streaming forms
// so observability stays per-carrier either way. The counter is resolved
// once per answer, not once per value.
func (s *server) recordServed(carrier *auric.Carrier, recs []auric.Recommendation, traceID string) {
	if s.recommendations != nil {
		supported := 0
		for i := range recs {
			if recs[i].Supported {
				supported++
			}
		}
		if supported > 0 {
			s.recommendations.With("true").Add(uint64(supported))
		}
		if unsupported := len(recs) - supported; unsupported > 0 {
			s.recommendations.With("false").Add(uint64(unsupported))
		}
	}
	if s.audit == nil {
		return
	}
	now := time.Now()
	for _, rec := range recs {
		if err := s.audit.Append(audit.Record{
			Time:            now,
			TraceID:         traceID,
			Carrier:         int(carrier.ID),
			Param:           rec.Param,
			Neighbor:        int(rec.Neighbor),
			Value:           rec.Value,
			Label:           rec.Label,
			Confidence:      rec.Confidence,
			Supported:       rec.Supported,
			RelaxationLevel: rec.RelaxationLevel,
			Candidates:      rec.Candidates,
			VoteShare:       rec.VoteShare,
			ExactIndexHit:   rec.ExactIndexHit,
			Dependents:      rec.Dependents,
			Dropped:         rec.Dropped,
			Explanation:     rec.Explanation,
		}); err != nil {
			log.Printf("auricd: audit append: %v", err)
		}
	}
}

// requestTraceID extracts the root span's trace id ("" when untraced).
func requestTraceID(r *http.Request) string {
	if sp := trace.FromContext(r.Context()); sp != nil {
		return sp.TraceID().String()
	}
	return ""
}

func (s *server) observeBatchSize(n int) {
	if s.batchSize != nil {
		s.batchSize.Observe(float64(n))
	}
}

// jsonBufs pools the encode buffers of writeJSONStatus.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// bodyBufs pools the buffers the recommend writer (render.go) appends
// response bodies into: answers run to hundreds of KB, and reusing the
// buffer keeps the serving path's allocation rate flat under load.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeBody sends a 200 JSON body that render appends to a pooled buffer.
func writeBody(rw http.ResponseWriter, render func([]byte) []byte) {
	buf := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(buf)
	*buf = render((*buf)[:0])
	rw.Header().Set("Content-Type", "application/json")
	if _, err := rw.Write(*buf); err != nil {
		log.Printf("auricd: writing response: %v", err)
	}
}

// writeEncodeFailure answers a response that has no JSON form (a NaN or
// infinite float) with the 500 writeJSONStatus sends for one.
func writeEncodeFailure(rw http.ResponseWriter, err error) {
	log.Printf("auricd: encoding response: %v", err)
	writeError(rw, http.StatusInternalServerError, "encoding response")
}

func writeJSON(rw http.ResponseWriter, v any) {
	writeJSONStatus(rw, http.StatusOK, v)
}

// writeJSONStatus writes v as indented JSON through encoding/json with an
// explicit status code. The small JSON responses (network, carriers,
// shards, health, ingest, reload, compact) go through it or writeJSON,
// where reflection and the indent pass cost little; recommend answers use
// the one-pass writer in render.go, which produces the same bytes.
func writeJSONStatus(rw http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		writeEncodeFailure(rw, err)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		rw.WriteHeader(status)
	}
	if _, err := rw.Write(buf.Bytes()); err != nil {
		log.Printf("auricd: writing response: %v", err)
	}
}

// writeError sends the JSON error shape every non-2xx response uses.
func writeError(rw http.ResponseWriter, status int, msg string) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(map[string]string{"error": msg})
}

// methodNotAllowed is the fallback handler registered on the
// method-unqualified pattern of every route.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Allow", allow)
		writeError(rw, http.StatusMethodNotAllowed, "method not allowed; use "+allow)
	}
}

func attributeNames() []string {
	return []string{
		"carrierFrequency", "carrierType", "carrierInfo", "morphology",
		"channelBandwidth", "downlinkMimoMode", "hardwareConfiguration",
		"expectedCellSize", "trackingAreaCode", "market", "vendor",
		"neighborChannel", "neighborsOnSameENodeB", "softwareVersion",
	}
}

// newCarrierAt synthesizes a launch-ready carrier on an existing eNodeB:
// via the generator when available, otherwise by copying a co-sited donor
// carrier (the vendor's own practice).
func (s *server) newCarrierAt(net *auric.Network, enb auric.ENodeBID) *auric.Carrier {
	id := auric.CarrierID(len(net.Carriers))
	if s.world != nil {
		s.newRNGMu.Lock()
		defer s.newRNGMu.Unlock()
		return s.world.NewCarrierAt(enb, id, s.newRNG)
	}
	e := &net.ENodeBs[enb]
	if len(e.Carriers) == 0 {
		return nil
	}
	donor := net.Carriers[e.Carriers[0]]
	donor.ID = id
	donor.ENodeB = enb
	donor.NeighborsOnENB = len(e.Carriers)
	return &donor
}
