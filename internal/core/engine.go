// Package core implements the Auric engine (Sec 3, Fig 5): it learns
// per-parameter dependency models from the existing carriers of a network
// and recommends configuration values for new carriers from their
// attributes, optionally restricting the voting evidence to the carrier's
// X2 geographic neighborhood (the local learner of Sec 3.3).
//
// ShardedEngine serves multiple markets — one engine per market, routed
// by carrier, retrained and swapped atomically (Load) without blocking
// readers — and is the engine side of the live-ingest path: Apply takes a
// Delta of carrier upserts and tombstones and patches the affected
// per-parameter models in place (cf.Model.Update over a copy-on-write
// dataset extension) instead of retraining, installing the result with
// the same atomic generation swap a reload uses. Patched state is
// prediction-equivalent to a from-scratch refit; the ingest tests in this
// package pin that down.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"auric/internal/dataset"
	"auric/internal/geo"
	"auric/internal/learn"
	"auric/internal/learn/cf"
	"auric/internal/lte"
	"auric/internal/obs"
	"auric/internal/paramspec"
	"auric/internal/pool"
	"auric/internal/trace"
)

// Stage timers for the hot pipeline paths, exported at /metrics by
// cmd/auricd and summarized by cmd/auriceval -timings. The per-parameter
// histograms are fed from inside the worker pool, so they expose the
// fan-out granularity (65 fits per Train, one prediction per
// (parameter, neighbor) job per Recommend).
var (
	trainSeconds = obs.Default().Histogram("auric_engine_train_seconds",
		"Wall-clock seconds per Engine.Train call (all parameter models fitted).", obs.DefBuckets)
	trainParamSeconds = obs.Default().Histogram("auric_engine_train_param_seconds",
		"Seconds fitting one parameter model inside the Train worker pool.", obs.DefBuckets)
	recommendSeconds = obs.Default().Histogram("auric_engine_recommend_seconds",
		"Wall-clock seconds per Engine.Recommend call (all parameters predicted).", obs.DefBuckets)
	recommendParamSeconds = obs.Default().Histogram("auric_engine_recommend_param_seconds",
		"Seconds predicting one (parameter, neighbor) job inside the Recommend worker pool.", obs.DefBuckets)
)

// Options configure an engine. Every engine fits one collaborative-
// filtering model per parameter with the paper's settings (cf.Fit); the
// other learners of Table 4 are baselines for internal/eval only.
type Options struct {
	// Local enables geographic scoping: recommendations vote only among
	// carriers one X2 hop from the new carrier's eNodeB (Sec 3.3).
	Local bool
	// MaxSamples caps the training rows per parameter (0 = unlimited);
	// subsampling is deterministic per parameter.
	MaxSamples int
	// Workers bounds the worker pool Train and Recommend fan out on,
	// per parameter; zero or negative means runtime.NumCPU(). The worker
	// count affects timing only: results are bit-for-bit identical at any
	// setting.
	Workers int
	// CacheEntries, when positive, puts a generation-keyed memo cache of
	// that many fully materialized recommendation sets in front of
	// ShardedEngine serving (see cache.go). Cached answers are
	// byte-identical to computed ones; a reload or live-ingest delta
	// starts the cache cold. Zero disables caching.
	CacheEntries int

	// beforePredict, when non-nil, runs at the start of every job of the
	// recommendMany fan-out. Tests use it to hold or count predictions.
	beforePredict func()
}

// Engine learns and serves configuration recommendations.
type Engine struct {
	opts   Options
	schema *paramspec.Schema

	net    *lte.Network
	x2     *geo.Graph
	models []*cf.Model // indexed by schema index; nil before Train
}

// New creates an engine over the given schema.
func New(schema *paramspec.Schema, opts Options) *Engine {
	return &Engine{opts: opts, schema: schema}
}

// Train fits one dependency model per configuration parameter from the
// network's current configuration. It must be called before Recommend.
//
// Parameters are independent (Sec 3.2: one chi-square dependency model
// each), so they fit on a worker pool of Options.Workers goroutines over a
// shared attribute base; each model lands in its own slot, so the fitted
// state is identical at every worker count. The fits share one cf.Shared,
// so models over the same rows (all singular tables, and pair-wise tables
// with the same configured relations) share their posting lists.
func (e *Engine) Train(net *lte.Network, x2 *geo.Graph, cfg *lte.Config) error {
	return e.train(net, x2, cfg, nil)
}

// train is Train over the carriers keep admits (nil admits every carrier);
// a market shard passes its shardFilter.
func (e *Engine) train(net *lte.Network, x2 *geo.Graph, cfg *lte.Config, keep dataset.Filter) error {
	defer obs.Since(trainSeconds, time.Now())
	e.net, e.x2 = net, x2
	b := dataset.NewBuilder(net, x2, keep)
	sh := cf.NewShared()
	models := make([]*cf.Model, e.schema.Len())
	err := pool.ForEachNTimed(e.opts.Workers, e.schema.Len(), trainParamSeconds, func(pi int) error {
		t := b.Labeled(cfg, pi)
		if e.opts.MaxSamples > 0 {
			t = t.Sample(e.opts.MaxSamples, uint64(pi)+1)
		}
		if t.Len() == 0 {
			return fmt.Errorf("core: no training samples for %s", e.schema.At(pi).Name)
		}
		m, err := sh.Fit(t, cf.Options{})
		if err != nil {
			return fmt.Errorf("core: fitting %s: %w", e.schema.At(pi).Name, err)
		}
		models[pi] = m
		return nil
	})
	if err != nil {
		return err
	}
	e.models = models
	return nil
}

// Model returns the fitted model of one parameter (nil before Train). The
// result stays the learn.Model interface, not *cf.Model: the perfbench
// harness type-asserts it to learn.CodesModel and learn.SiteScoper, and a
// type assertion does not compile on a concrete type.
func (e *Engine) Model(pi int) learn.Model {
	if pi < 0 || pi >= len(e.models) {
		return nil
	}
	return e.models[pi]
}

// Recommendation is one recommended configuration value.
type Recommendation struct {
	// Param names the configuration parameter.
	Param string
	// ParamIndex is the schema index.
	ParamIndex int
	// Neighbor is the target of a pair-wise recommendation, or -1.
	Neighbor lte.CarrierID
	// Value is the recommended grid value; Label its canonical form.
	Value float64
	Label string
	// Confidence is the model's support. Supported reports whether it
	// reached the 75% voting threshold (cf.DefaultSupport) at whatever
	// relaxation level the vote settled, not only on the full dependent
	// set.
	Confidence float64
	Supported  bool
	// Explanation is the human-readable account shown to engineers.
	Explanation string
	// The remaining fields are the machine-readable evidence diagnostics
	// carried from learn.Diag for the tracing and audit layers.

	// RelaxationLevel is the ladder level the vote settled at (0 = full
	// dependent set; -1 = no evidence fallback).
	RelaxationLevel int
	// Candidates is the number of matching carriers that voted.
	Candidates int
	// VoteShare is the winning label's share of the vote.
	VoteShare float64
	// ExactIndexHit reports that the pool came from the exact full-key
	// index rather than posting-list intersection.
	ExactIndexHit bool
	// PostingLists is the number of posting lists intersected.
	PostingLists int
	// Dropped names the dependent attributes relaxed away (comma-joined,
	// weakest first).
	Dropped string
	// Dependents are the "attribute=value" pairs the model matched on,
	// strongest association first.
	Dependents []string
}

// Recommend produces recommendations for every parameter of a new carrier.
// The carrier must reference an eNodeB of the trained network (it is
// "ready for launch": physically integrated, locked, not yet carrying
// traffic — Sec 5). neighbors lists the carrier's X2 neighbor carriers for
// pair-wise parameters; pass nil to skip those.
func (e *Engine) Recommend(c *lte.Carrier, neighbors []lte.CarrierID) ([]Recommendation, error) {
	return e.RecommendContext(context.Background(), c, neighbors)
}

// RecommendContext is Recommend with request plumbing: the per-parameter
// fan-out stops dispatching when ctx is cancelled (a disconnected HTTP
// client abandons the answer), and when ctx carries a sampled trace (see
// internal/trace) the call records an "engine.recommend" span with one
// annotated "recommend.param" child per (parameter, neighbor) job. With
// a background context it behaves exactly like Recommend.
func (e *Engine) RecommendContext(ctx context.Context, c *lte.Carrier, neighbors []lte.CarrierID) ([]Recommendation, error) {
	if e.net == nil {
		return nil, fmt.Errorf("core: engine not trained")
	}
	res := e.recommendMany(ctx, []BatchItem{{Carrier: c, Neighbors: neighbors}})
	return res[0].Recommendations, res[0].Err
}

// BatchItem is one carrier's recommendation request within a batch.
type BatchItem struct {
	// Carrier is the new carrier to recommend for.
	Carrier *lte.Carrier
	// Neighbors lists its X2 neighbor carriers for pair-wise parameters;
	// nil skips those.
	Neighbors []lte.CarrierID
}

// BatchResult is the per-item outcome of RecommendBatch: either the item's
// recommendations or its error, never both.
type BatchResult struct {
	Recommendations []Recommendation
	Err             error
}

// RecommendBatch recommends for many carriers in one fan-out over the
// worker pool. Every item's result is byte-identical to a RecommendContext
// call for the same carrier, and item failures are isolated: an unusable
// item reports its error in its own slot without failing the batch.
//
// The batch amortizes per-request setup: each attribute vector is encoded
// through the column dictionaries once and shared by every model fitted
// over the same columnar base, and the per-worker predict scratch pools
// stay hot across items. Tracing and metrics stay per-carrier — one
// "engine.recommend" span and one latency observation per item.
func (e *Engine) RecommendBatch(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	if e.net == nil {
		return nil, fmt.Errorf("core: engine not trained")
	}
	return e.recommendMany(ctx, items), nil
}

// itemState is one batch item's planning state within recommendMany.
type itemState struct {
	sp       *trace.Span
	start    time.Time
	scope    *learn.Scope // nil unless the engine is Local
	firstJob int
	numJobs  int
	err      error
}

// recJob is one (item, parameter, neighbor) prediction of a batch fan-out.
type recJob struct {
	item     int
	pi       int
	attrs    []string
	codes    []int32
	neighbor lte.CarrierID
}

// recScratch is the pooled planning storage of one recommendMany call:
// item states, the flattened job list, per-job error slots and timings,
// the arenas attribute vectors and their encodings are appended into, and
// the span attributes of a sampled item. Only the output Recommendation
// slice escapes into results; everything here is cleared (no retained
// pointers) and reused by the next batch.
type recScratch struct {
	states    []itemState
	jobs      []recJob
	errs      []error
	times     []trace.Child // per job: start and duration, once it has run
	attrs     []string      // backing arena for attribute vectors
	codes     []int32       // backing arena for encoded query rows
	spanAttrs []trace.Attr  // one sampled item's span attributes, back to back
}

var recScratchPool = sync.Pool{New: func() any { return new(recScratch) }}

func putRecScratch(sc *recScratch) {
	clear(sc.states)
	clear(sc.jobs)
	clear(sc.errs)
	clear(sc.times)
	clear(sc.attrs)
	clear(sc.spanAttrs)
	sc.states, sc.jobs, sc.errs, sc.times = sc.states[:0], sc.jobs[:0], sc.errs[:0], sc.times[:0]
	sc.attrs, sc.codes = sc.attrs[:0], sc.codes[:0]
	sc.spanAttrs = sc.spanAttrs[:0]
	recScratchPool.Put(sc)
}

// recommendMany is the shared core of RecommendContext and RecommendBatch:
// it plans every item's (parameter, neighbor) jobs, flattens them into one
// worker-pool fan-out, and reassembles per-item results. Each job writes
// its preallocated slot and the fitted models are read-only, so the output
// is byte-identical to the serial walk at any worker count.
func (e *Engine) recommendMany(ctx context.Context, items []BatchItem) []BatchResult {
	singular, pair := e.schema.Singular(), e.schema.PairWise()
	// Every model of an attribute base is fitted from one dataset.Builder
	// (or rebased by one ExtendBase on ingest), so each attribute vector
	// is dictionary-encoded once, through the base's first model, instead
	// of once per parameter model. An empty group has no jobs to encode
	// for.
	var sRep, pRep *cf.Model
	if len(singular) > 0 {
		sRep = e.models[singular[0]]
	}
	if len(pair) > 0 {
		pRep = e.models[pair[0]]
	}
	sc := recScratchPool.Get().(*recScratch)
	if cap(sc.states) < len(items) {
		sc.states = make([]itemState, len(items))
	}
	// Every element within capacity is zero: putRecScratch clears exactly
	// the elements a batch used before resetting the lengths.
	states := sc.states[:len(items)]
	sc.states = states
	// encode appends row's codes under rep into the pooled arena; nil for
	// an empty group.
	encode := func(rep *cf.Model, row []string) []int32 {
		if rep == nil {
			return nil
		}
		cb := len(sc.codes)
		sc.codes = rep.AppendEncodeRow(sc.codes, row)
		return sc.codes[cb:len(sc.codes):len(sc.codes)]
	}
	jobs := sc.jobs[:0]
	for ii := range items {
		c := items[ii].Carrier
		_, sp := trace.Start(ctx, "engine.recommend")
		st := &states[ii]
		st.sp, st.start = sp, time.Now()
		st.firstJob = len(jobs)
		// A neighbor id outside the trained inventory (possible when a
		// caller mixes ids across snapshot generations) is an item error,
		// not a panic, and it fails the item before any job is planned.
		for _, nb := range items[ii].Neighbors {
			if nb < 0 || int(nb) >= len(e.net.Carriers) {
				st.err = fmt.Errorf("core: neighbor %d outside the %d trained carriers", nb, len(e.net.Carriers))
				break
			}
		}
		if st.err == nil {
			if e.opts.Local {
				// A scope is a site set, valid for every model: one per
				// item serves all of its jobs.
				st.scope = e.scopeFor(c)
			}
			// Attribute vectors and their encodings append into the pooled
			// arenas; a grown arena leaves earlier vectors on the previous
			// backing array, which stays reachable through their jobs.
			base := len(sc.attrs)
			sc.attrs = c.AppendAttributeVector(sc.attrs)
			attrs := sc.attrs[base:len(sc.attrs):len(sc.attrs)]
			sCodes := encode(sRep, attrs)
			for _, pi := range singular {
				jobs = append(jobs, recJob{ii, pi, attrs, sCodes, -1})
			}
			for _, nb := range items[ii].Neighbors {
				pb := len(sc.attrs)
				sc.attrs = append(sc.attrs, attrs...)
				sc.attrs = e.net.Carriers[nb].AppendAttributeVector(sc.attrs)
				pairAttrs := sc.attrs[pb:len(sc.attrs):len(sc.attrs)]
				pCodes := encode(pRep, pairAttrs)
				for _, pi := range pair {
					jobs = append(jobs, recJob{ii, pi, pairAttrs, pCodes, nb})
				}
			}
		}
		st.numJobs = len(jobs) - st.firstJob
		sp.SetInt("carrier", int64(c.ID))
		sp.SetInt("neighbors", int64(len(items[ii].Neighbors)))
		sp.SetInt("jobs", int64(st.numJobs))
		sp.SetBool("scoped", e.opts.Local)
	}
	sc.jobs = jobs
	// Every item's spans join one trace: reserve them all at once, the
	// jobs' recommend.param spans and each item's engine.recommend.
	if len(items) > 0 {
		states[0].sp.Reserve(len(jobs) + len(items))
	}
	// out escapes into the returned results (each item's recommendations
	// alias a window of it), so it is the one per-call allocation the
	// scratch pool cannot absorb.
	out := make([]Recommendation, len(jobs))
	if cap(sc.errs) < len(jobs) {
		sc.errs = make([]error, len(jobs))
	}
	if cap(sc.times) < len(jobs) {
		sc.times = make([]trace.Child, len(jobs))
	}
	errs, times := sc.errs[:len(jobs)], sc.times[:len(jobs)]
	sc.errs, sc.times = errs, times
	poolErr := pool.ForEachNCtx(ctx, e.opts.Workers, len(jobs), func(_ context.Context, i int) error {
		if e.opts.beforePredict != nil {
			e.opts.beforePredict()
		}
		j := jobs[i]
		m := e.models[j.pi]
		if m == nil {
			errs[i] = fmt.Errorf("core: no model for parameter %d", j.pi)
			return nil
		}
		// The job's one start and end reading feed both the histogram
		// and, when the item is sampled, its recommend.param span.
		start := time.Now()
		rec, err := e.recommendOne(m, j.pi, j.attrs, j.codes, j.neighbor, states[j.item].scope)
		dur := time.Since(start)
		recommendParamSeconds.Observe(dur.Seconds())
		times[i] = trace.Child{Start: start, Duration: dur}
		// Errors land in the job's own slot so one item cannot fail its
		// batch siblings; the pool keeps draining.
		errs[i] = err
		out[i] = rec
		return nil
	})
	// Every job that ran made one prediction, and out holds its level even
	// when the job failed afterwards: the batch counts them in one tally.
	var levels cf.Levels
	for i := range jobs {
		if !times[i].Start.IsZero() {
			levels.Add(out[i].RelaxationLevel)
		}
	}
	levels.Publish()
	results := make([]BatchResult, len(items))
	for ii := range items {
		st := &states[ii]
		if st.sp.Sampled() {
			e.recordParamSpans(sc, st, out)
		}
		err := st.err
		for i := st.firstJob; err == nil && i < st.firstJob+st.numJobs; i++ {
			if errs[i] != nil {
				err = errs[i]
				break
			}
		}
		if err == nil && poolErr != nil {
			// Cancellation abandons the whole fan-out; no item can claim
			// a complete answer.
			err = poolErr
		}
		if err != nil {
			results[ii].Err = err
		} else {
			recs := out[st.firstJob : st.firstJob+st.numJobs : st.firstJob+st.numJobs]
			sort.SliceStable(recs, func(i, j int) bool {
				if recs[i].Neighbor != recs[j].Neighbor {
					return recs[i].Neighbor < recs[j].Neighbor
				}
				return recs[i].ParamIndex < recs[j].ParamIndex
			})
			results[ii].Recommendations = recs
		}
		st.sp.Finish()
		// The exemplar joins the aggregate latency histogram to this
		// concrete trace; unsampled requests pass an empty ID (no-op).
		var exemplar string
		if st.sp.Sampled() {
			exemplar = st.sp.TraceID().String()
		}
		recommendSeconds.ObserveExemplar(time.Since(st.start).Seconds(), exemplar)
	}
	putRecScratch(sc)
	return results
}

// recordParamSpans records one recommend.param span per job of a sampled
// item that ran, in job order, through one trace call: its start and
// duration are the job's own clock readings, and its attributes the
// prediction's evidence diagnostics, or the job's error.
func (e *Engine) recordParamSpans(sc *recScratch, st *itemState, out []Recommendation) {
	times, errs, attrs := sc.times, sc.errs, sc.spanAttrs[:0]
	// The item's spans compact in place over its job timings: the write
	// index never passes the read index.
	spans := times[st.firstJob:st.firstJob]
	for i := st.firstJob; i < st.firstJob+st.numJobs; i++ {
		if times[i].Start.IsZero() {
			continue // cancelled before it started
		}
		j := &sc.jobs[i]
		base := len(attrs)
		attrs = append(attrs,
			trace.Str("param", e.schema.At(j.pi).Name),
			trace.Int("neighbor", int64(j.neighbor)))
		if errs[i] != nil {
			attrs = append(attrs, trace.Str("error", errs[i].Error()))
		} else {
			rec := &out[i]
			attrs = append(attrs,
				trace.Int("relaxation_level", int64(rec.RelaxationLevel)),
				trace.Int("candidates", int64(rec.Candidates)),
				trace.Float("vote_share", rec.VoteShare),
				trace.Bool("exact_index_hit", rec.ExactIndexHit))
			if rec.PostingLists > 0 {
				attrs = append(attrs, trace.Int("posting_lists", int64(rec.PostingLists)))
			}
			if rec.Dropped != "" {
				attrs = append(attrs, trace.Str("dropped", rec.Dropped))
			}
			attrs = append(attrs, trace.Bool("supported", rec.Supported))
		}
		spans = append(spans, trace.Child{Start: times[i].Start, Duration: times[i].Duration, NumAttrs: len(attrs) - base})
	}
	st.sp.RecordChildren("recommend.param", spans, attrs)
	sc.spanAttrs = attrs
}

// recommendOne predicts parameter pi through its model m from the batch's
// shared query codes, voting within sc when the engine is Local. The
// prediction is not counted on the cf relaxation counters: the caller
// tallies RelaxationLevel, which the result carries even with an error.
func (e *Engine) recommendOne(m *cf.Model, pi int, attrs []string, codes []int32, neighbor lte.CarrierID, sc *learn.Scope) (Recommendation, error) {
	p := m.PredictCodesUncounted(codes, attrs, sc)
	spec := e.schema.At(pi)
	v, err := parseLabel(spec, p.Label)
	if err != nil {
		return Recommendation{RelaxationLevel: p.Diag.Level}, err
	}
	rec := Recommendation{
		Param:       spec.Name,
		ParamIndex:  pi,
		Neighbor:    neighbor,
		Value:       v,
		Label:       p.Label,
		Confidence:  p.Confidence,
		Supported:   p.Confidence >= cf.DefaultSupport,
		Explanation: p.Explanation,

		RelaxationLevel: p.Diag.Level,
		Candidates:      p.Diag.Candidates,
		VoteShare:       p.Diag.VoteShare,
		ExactIndexHit:   p.Diag.ExactIndex,
		PostingLists:    p.Diag.PostingLists,
		Dropped:         p.Diag.Dropped,

		Dependents: m.DependentValues(codes, attrs),
	}
	return rec, nil
}

// scopeFor is the site set a new carrier's recommendations may vote with:
// the carriers one X2 hop from the carrier's eNodeB (the paper's radius),
// excluding the carrier itself.
func (e *Engine) scopeFor(c *lte.Carrier) *learn.Scope {
	// Anchoring on the eNodeB (not the carrier id) also covers new
	// carriers that are not yet in the X2 graph: their eNodeB is.
	near := e.x2.CarriersNearENodeB(e.net, c.ENodeB, 1)
	return learn.NewScope(slices.DeleteFunc(near, func(id lte.CarrierID) bool { return id == c.ID }))
}

func parseLabel(spec paramspec.Param, label string) (float64, error) {
	if label == "" {
		return 0, fmt.Errorf("core: empty prediction for %s", spec.Name)
	}
	// strconv instead of fmt.Sscanf: this runs once per (parameter,
	// neighbor) job on the serving path, and the Sscanf scan-state
	// machinery alone was a measurable allocation source.
	v, err := strconv.ParseFloat(label, 64)
	if err != nil {
		return 0, fmt.Errorf("core: unparsable label %q for %s: %w", label, spec.Name, err)
	}
	return spec.Quantize(v), nil
}
