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

// Options configure an engine.
type Options struct {
	// Learner builds the per-parameter models; nil means collaborative
	// filtering with the paper's settings, the learner Auric ships with.
	Learner learn.Learner
	// Local enables geographic scoping: recommendations vote only among
	// carriers within Hops X2 hops of the new carrier. Requires the
	// learner's models to implement learn.SiteScoper (CF does).
	Local bool
	// Hops is the scoping radius; zero means 1 (the paper's setting).
	Hops int
	// Vendor, when non-empty, restricts training to carriers of that
	// vendor — the paper formulates the problem independently per vendor
	// (Sec 2.2).
	Vendor string
	// Keep, when non-nil, restricts training to carriers it admits; it
	// composes with Vendor (both must pass). ShardedEngine uses it to
	// carve one training partition per market.
	Keep dataset.Filter
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
	// X2 configures the X2 graph rebuild ShardedEngine.Apply performs when
	// a delta changes the inventory. It must match the options the serving
	// graph was originally built with; the zero value is the geo package's
	// defaults, which is what cmd/auricd and netsim use.
	X2 geo.Options
}

// Engine learns and serves configuration recommendations.
type Engine struct {
	opts   Options
	schema *paramspec.Schema

	net    *lte.Network
	x2     *geo.Graph
	models []learn.Model // indexed by schema index; nil before Train
}

// New creates an engine over the given schema.
func New(schema *paramspec.Schema, opts Options) *Engine {
	if opts.Learner == nil {
		opts.Learner = cf.New()
	}
	if opts.Hops <= 0 {
		opts.Hops = 1
	}
	return &Engine{opts: opts, schema: schema}
}

// Schema returns the engine's parameter schema.
func (e *Engine) Schema() *paramspec.Schema { return e.schema }

// LearnerName reports the configured learner.
func (e *Engine) LearnerName() string { return e.opts.Learner.Name() }

// Train fits one dependency model per configuration parameter from the
// network's current configuration. It must be called before Recommend.
//
// Parameters are independent (Sec 3.2: one chi-square dependency model
// each), so they fit on a worker pool of Options.Workers goroutines over a
// shared attribute base; each model lands in its own slot, so the fitted
// state is identical at every worker count.
func (e *Engine) Train(net *lte.Network, x2 *geo.Graph, cfg *lte.Config) error {
	defer obs.Since(trainSeconds, time.Now())
	e.net, e.x2 = net, x2
	keep := e.opts.Keep
	if e.opts.Vendor != "" {
		vendor, base := e.opts.Vendor, keep
		keep = func(id lte.CarrierID) bool {
			return net.Carriers[id].Vendor == vendor && (base == nil || base(id))
		}
	}
	b := dataset.NewBuilder(net, x2, keep)
	models := make([]learn.Model, e.schema.Len())
	err := pool.ForEachNTimed(e.opts.Workers, e.schema.Len(), trainParamSeconds, func(pi int) error {
		t := b.Labeled(cfg, pi)
		if e.opts.MaxSamples > 0 {
			t = t.Sample(e.opts.MaxSamples, uint64(pi)+1)
		}
		if t.Len() == 0 {
			return fmt.Errorf("core: no training samples for %s", e.schema.At(pi).Name)
		}
		m, err := e.opts.Learner.Fit(t)
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

// Model returns the fitted model of one parameter (nil before Train).
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
	// Confidence is the model's support, Supported whether it met the 75%
	// voting threshold on full evidence (always true for non-CF models,
	// which have no abstention semantics).
	Confidence float64
	Supported  bool
	// Explanation is the human-readable account shown to engineers.
	Explanation string
	// The remaining fields are the machine-readable evidence diagnostics
	// carried from learn.Diag for the tracing and audit layers; they are
	// zero for learners without relaxation semantics.

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
	// strongest association first (nil for non-CF learners).
	Dependents []string
}

// CopyRecommendations deep-copies a recommendation slice. Cached results
// from the generation-keyed serving cache are shared across requests and
// must not be mutated; callers that need to edit an answer in place copy
// it first. Dependents is the only slice field, everything else copies by
// value.
func CopyRecommendations(recs []Recommendation) []Recommendation {
	if recs == nil {
		return nil
	}
	out := make([]Recommendation, len(recs))
	copy(out, recs)
	for i := range out {
		if d := out[i].Dependents; d != nil {
			out[i].Dependents = append(make([]string, 0, len(d)), d...)
		}
	}
	return out
}

// dependentValuer is implemented by models that can report the
// "name=value" evidence key of a query row (cf.Model does).
type dependentValuer interface {
	DependentValues(row []string) []string
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
// through the column dictionaries once (learn.CodesModel) and shared by
// every model fitted over the same columnar base, and the per-worker
// predict scratch pools stay hot across items. Tracing and metrics stay
// per-carrier — one "engine.recommend" span and one latency observation
// per item.
func (e *Engine) RecommendBatch(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	if e.net == nil {
		return nil, fmt.Errorf("core: engine not trained")
	}
	return e.recommendMany(ctx, items), nil
}

// codesRep returns a model against which every model of pis shares its
// query encoding — the representative a batch encodes rows through once —
// or nil when any model opts out of the codes fast path.
func (e *Engine) codesRep(pis []int) learn.CodesModel {
	var rep learn.CodesModel
	for _, pi := range pis {
		m, ok := e.models[pi].(learn.CodesModel)
		if !ok {
			return nil
		}
		if rep == nil {
			rep = m
			continue
		}
		if !rep.SharesEncoding(m) {
			return nil
		}
	}
	return rep
}

// scopesFor precomputes, per parameter model, the neighborhood scope for
// the allowed From carriers (nil for models without SiteScoper support,
// which then cannot serve a Local engine).
func (e *Engine) scopesFor(ids []lte.CarrierID) []learn.Scope {
	scopes := make([]learn.Scope, len(e.models))
	for pi, m := range e.models {
		if ss, ok := m.(learn.SiteScoper); ok {
			scopes[pi] = ss.ScopeFrom(ids)
		}
	}
	return scopes
}

// itemState is one batch item's planning state within recommendMany.
type itemState struct {
	ctx      context.Context
	sp       *trace.Span
	start    time.Time
	scopes   []learn.Scope
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
// item states, the flattened job list, per-job error slots, and the
// arenas attribute vectors and their encodings are appended into. Only
// the output Recommendation slice escapes into results; everything here
// is cleared (no retained pointers) and reused by the next batch.
type recScratch struct {
	states []itemState
	jobs   []recJob
	errs   []error
	attrs  []string // backing arena for attribute vectors
	codes  []int32  // backing arena for encoded query rows
}

var recScratchPool = sync.Pool{New: func() any { return new(recScratch) }}

func putRecScratch(sc *recScratch) {
	clear(sc.states)
	clear(sc.jobs)
	clear(sc.errs)
	clear(sc.attrs)
	sc.states, sc.jobs, sc.errs = sc.states[:0], sc.jobs[:0], sc.errs[:0]
	sc.attrs, sc.codes = sc.attrs[:0], sc.codes[:0]
	recScratchPool.Put(sc)
}

// recommendMany is the shared core of RecommendContext and RecommendBatch:
// it plans every item's (parameter, neighbor) jobs, flattens them into one
// worker-pool fan-out, and reassembles per-item results. Each job writes
// its preallocated slot and the fitted models are read-only, so the output
// is byte-identical to the serial walk at any worker count.
func (e *Engine) recommendMany(ctx context.Context, items []BatchItem) []BatchResult {
	singular, pair := e.schema.Singular(), e.schema.PairWise()
	// One encoding representative per attribute base: when every model of
	// a group shares its base, each attribute vector is dictionary-encoded
	// once here instead of once per parameter model.
	sRep := e.codesRep(singular)
	var pRep learn.CodesModel
	if len(pair) > 0 {
		pRep = e.codesRep(pair)
	}
	sc := recScratchPool.Get().(*recScratch)
	if cap(sc.states) < len(items) {
		sc.states = make([]itemState, len(items))
	}
	// Every element within capacity is zero: putRecScratch clears exactly
	// the elements a batch used before resetting the lengths.
	states := sc.states[:len(items)]
	sc.states = states
	// encode appends row's codes under rep into the pooled arena; nil when
	// the models do not share one encoding.
	encode := func(rep learn.CodesModel, row []string) []int32 {
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
		ictx, sp := trace.Start(ctx, "engine.recommend")
		st := &states[ii]
		st.ctx, st.sp, st.start = ictx, sp, time.Now()
		if e.opts.Local {
			st.scopes = e.scopesFor(e.scopeIDsFor(c))
		}
		// Attribute vectors and their encodings append into the pooled
		// arenas; a grown arena leaves earlier vectors on the previous
		// backing array, which stays reachable through their jobs.
		base := len(sc.attrs)
		sc.attrs = c.AppendAttributeVector(sc.attrs)
		attrs := sc.attrs[base:len(sc.attrs):len(sc.attrs)]
		sCodes := encode(sRep, attrs)
		st.firstJob = len(jobs)
		for _, pi := range singular {
			jobs = append(jobs, recJob{ii, pi, attrs, sCodes, -1})
		}
		for _, nb := range items[ii].Neighbors {
			// A neighbor id outside the trained inventory (possible when a
			// caller mixes ids across snapshot generations) is an item
			// error, not a panic.
			if nb < 0 || int(nb) >= len(e.net.Carriers) {
				st.err = fmt.Errorf("core: neighbor %d outside the %d trained carriers", nb, len(e.net.Carriers))
				break
			}
			pb := len(sc.attrs)
			sc.attrs = append(sc.attrs, attrs...)
			sc.attrs = e.net.Carriers[nb].AppendAttributeVector(sc.attrs)
			pairAttrs := sc.attrs[pb:len(sc.attrs):len(sc.attrs)]
			pCodes := encode(pRep, pairAttrs)
			for _, pi := range pair {
				jobs = append(jobs, recJob{ii, pi, pairAttrs, pCodes, nb})
			}
		}
		st.numJobs = len(jobs) - st.firstJob
		sp.SetInt("carrier", int64(c.ID))
		sp.SetInt("neighbors", int64(len(items[ii].Neighbors)))
		sp.SetInt("jobs", int64(st.numJobs))
		sp.SetBool("scoped", e.opts.Local)
	}
	sc.jobs = jobs
	// out escapes into the returned results (each item's recommendations
	// alias a window of it), so it is the one per-call allocation the
	// scratch pool cannot absorb.
	out := make([]Recommendation, len(jobs))
	if cap(sc.errs) < len(jobs) {
		sc.errs = make([]error, len(jobs))
	}
	errs := sc.errs[:len(jobs)]
	sc.errs = errs
	poolErr := pool.ForEachNCtx(ctx, e.opts.Workers, len(jobs), recommendParamSeconds, func(jctx context.Context, i int) error {
		j := jobs[i]
		st := &states[j.item]
		_, psp := trace.Start(st.ctx, "recommend.param")
		psp.SetStr("param", e.schema.At(j.pi).Name)
		psp.SetInt("neighbor", int64(j.neighbor))
		var sc learn.Scope
		if st.scopes != nil {
			sc = st.scopes[j.pi]
		}
		rec, err := e.recommendOne(j.pi, j.attrs, j.codes, j.neighbor, sc)
		if err != nil {
			psp.SetStr("error", err.Error())
			psp.Finish()
			// Errors land in the job's own slot so one item cannot fail
			// its batch siblings; the pool keeps draining.
			errs[i] = err
			return nil
		}
		psp.SetInt("relaxation_level", int64(rec.RelaxationLevel))
		psp.SetInt("candidates", int64(rec.Candidates))
		psp.SetFloat("vote_share", rec.VoteShare)
		psp.SetBool("exact_index_hit", rec.ExactIndexHit)
		if rec.PostingLists > 0 {
			psp.SetInt("posting_lists", int64(rec.PostingLists))
		}
		if rec.Dropped != "" {
			psp.SetStr("dropped", rec.Dropped)
		}
		psp.SetBool("supported", rec.Supported)
		psp.Finish()
		out[i] = rec
		return nil
	})
	results := make([]BatchResult, len(items))
	for ii := range items {
		st := &states[ii]
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

// recommendOne predicts one parameter. A learn.CodesModel answers from
// the query codes (encoded here when the batch could not share them),
// voting within sc when the engine is Local; any other model answers
// through Predict and cannot serve a Local engine.
func (e *Engine) recommendOne(pi int, attrs []string, codes []int32, neighbor lte.CarrierID, sc learn.Scope) (Recommendation, error) {
	m := e.models[pi]
	if m == nil {
		return Recommendation{}, fmt.Errorf("core: no model for parameter %d", pi)
	}
	var p learn.Prediction
	switch cm, ok := m.(learn.CodesModel); {
	case e.opts.Local && sc == nil:
		return Recommendation{}, fmt.Errorf("core: learner %s cannot scope geographically", e.opts.Learner.Name())
	case ok:
		if codes == nil {
			codes = cm.EncodeRow(attrs)
		}
		p = cm.PredictCodes(codes, attrs, sc)
	default:
		p = m.Predict(attrs)
	}
	spec := e.schema.At(pi)
	v, err := parseLabel(spec, p.Label)
	if err != nil {
		return Recommendation{}, err
	}
	supported := p.Confidence >= 0.75
	rec := Recommendation{
		Param:       spec.Name,
		ParamIndex:  pi,
		Neighbor:    neighbor,
		Value:       v,
		Label:       p.Label,
		Confidence:  p.Confidence,
		Supported:   supported,
		Explanation: p.Explanation,

		RelaxationLevel: p.Diag.Level,
		Candidates:      p.Diag.Candidates,
		VoteShare:       p.Diag.VoteShare,
		ExactIndexHit:   p.Diag.ExactIndex,
		PostingLists:    p.Diag.PostingLists,
		Dropped:         p.Diag.Dropped,
	}
	if dv, ok := m.(dependentValuer); ok {
		rec.Dependents = dv.DependentValues(attrs)
	}
	return rec, nil
}

// scopeIDsFor lists the carriers whose training evidence a new carrier's
// recommendations may vote with: those within Hops X2 hops of the
// carrier's eNodeB, excluding the carrier itself.
func (e *Engine) scopeIDsFor(c *lte.Carrier) []lte.CarrierID {
	// Anchoring on the eNodeB (not the carrier id) also covers new
	// carriers that are not yet in the X2 graph: their eNodeB is.
	near := e.x2.CarriersNearENodeB(e.net, c.ENodeB, e.opts.Hops)
	ids := make([]lte.CarrierID, 0, len(near))
	for _, id := range near {
		if id != c.ID {
			ids = append(ids, id)
		}
	}
	return ids
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
