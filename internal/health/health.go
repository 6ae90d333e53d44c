// Package health scores each market shard's served model in production —
// the model-quality observability layer over live ingest. Three signals
// combine into a per-shard ok/degraded status:
//
//   - Serving-quality windows: a rolling window per market over served
//     predictions (confidence, vote share, relaxation-level mix,
//     unsupported ratio), fed from the learn.Diag fields every
//     recommendation already carries.
//   - Attribute drift: per-column PSI and chi-square comparison of the
//     attribute-code distribution of ingested and queried carriers
//     against the shard's training base (stats.CountTable, the same
//     dense table the chi-square dependency tests run on).
//   - Shadow-refit divergence: a scratch engine refits the shard's
//     Load-time cohort from scratch and replays probe carriers against
//     the incrementally patched serving model; the disagreement rate
//     bounds the divergence that compounding live patches introduce
//     beyond what the per-delta byte-identity tests can see.
//
// A Tracker implements core.Observer; attach it with
// ShardedEngine.SetObserver before Load. Everything is exposed through
// Report (the GET /v1/health/model payload), auric_* gauges, and a
// degraded-status transition hook intended for the future EMS rollout
// controller (a rollout gate subscribes to Transition and pauses staged
// unlocks while any involved shard is degraded).
package health

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"auric/internal/core"
	"auric/internal/geo"
	"auric/internal/lte"
	"auric/internal/obs"
)

// Config sets the tracker's window sizes and degradation thresholds —
// the -health-* flags of cmd/auricd.
type Config struct {
	// WindowSize is the number of served predictions retained per market
	// for serving-quality stats. 0 disables the rolling window (lifetime
	// counters still accumulate).
	WindowSize int
	// MinWindow is the minimum number of window samples before the
	// unsupported-ratio threshold can degrade a shard; below it the
	// window is informational only. Defaults to 256.
	MinWindow int
	// MinDriftRows is the minimum number of observed rows (ingested +
	// queried) before drift thresholds apply. Defaults to 50.
	MinDriftRows int
	// MaxPSI degrades a shard when any attribute column's population
	// stability index against the training base exceeds it. The industry
	// folklore scale: <0.1 stable, 0.1-0.25 shifting, >0.25 drifted.
	// Defaults to 0.25; <= 0 disables the check.
	MaxPSI float64
	// MaxUnsupported degrades a shard when the unsupported share of the
	// serving window exceeds it. Defaults to 0.5; <= 0 disables.
	MaxUnsupported float64
	// MaxDisagreement degrades a shard when the last shadow refit's
	// disagreement ratio exceeds it. Defaults to 0.02; <= 0 disables.
	MaxDisagreement float64
	// MaxLagOps degrades every shard when the delta journal's replay lag
	// (entries not folded into the compacted snapshot, fed via
	// SetJournalLag) exceeds it. 0 disables the check.
	MaxLagOps int64
	// ShadowEvery triggers an automatic background shadow refit of a
	// market after that many applied ingest operations touched it.
	// 0 disables the automatic trigger; ShadowCheck still works.
	ShadowEvery int64
	// ShadowProbes caps the carriers a shadow check replays (sampled
	// evenly from the shard's base cohort). Defaults to 64; < 0 means
	// the whole cohort.
	ShadowProbes int
	// OnTransition, when non-nil, is called whenever a shard's status
	// changes between ok and degraded — the gate hook for rollout
	// controllers. It runs synchronously inside Report/metrics-gather
	// evaluation and must not block.
	OnTransition func(Transition)
}

// withDefaults fills unset Config fields.
func (c Config) withDefaults() Config {
	if c.MinWindow == 0 {
		c.MinWindow = 256
	}
	if c.MinDriftRows == 0 {
		c.MinDriftRows = 50
	}
	if c.MaxPSI == 0 {
		c.MaxPSI = 0.25
	}
	if c.MaxUnsupported == 0 {
		c.MaxUnsupported = 0.5
	}
	if c.MaxDisagreement == 0 {
		c.MaxDisagreement = 0.02
	}
	if c.ShadowProbes == 0 {
		c.ShadowProbes = 64
	}
	return c
}

// Transition reports one shard's status flip.
type Transition struct {
	Market   int
	Name     string // market name ("" when the snapshot has none)
	Degraded bool
	// Reasons lists the threshold violations ("psi(softwareVersion)=0.81
	// > 0.25"); empty on recovery.
	Reasons []string
}

// Tracker scores shard models from the ShardedEngine's observer feed.
// It is safe for concurrent use; the serving-path callback takes one
// short per-market mutex and allocates only the query's attribute row.
type Tracker struct {
	cfg Config
	eng atomic.Pointer[core.ShardedEngine]

	// state is the baseline installed by the last ObserveLoad plus
	// everything observed since; nil before the first Load.
	state atomic.Pointer[baseState]

	// lagOps mirrors the delta journal's replay lag (SetJournalLag).
	lagOps atomic.Int64

	// shadowMu serializes shadow refits: they train a scratch engine,
	// which is the expensive part, and one at a time bounds the overhead.
	shadowMu sync.Mutex

	// evalMu guards degraded (last evaluated status per market) so
	// transition detection is exactly-once per flip.
	evalMu   sync.Mutex
	degraded map[int]bool

	confidence  *obs.Histogram
	unsupported *obs.GaugeVec
	driftPSI    *obs.GaugeVec
	shadowDis   *obs.GaugeVec
	statusG     *obs.GaugeVec
	shadowRuns  *obs.CounterVec
}

// baseState is the tracker's view of one Load generation: the immutable
// baseline inventory and the per-market accumulators fed by ingest and
// serving traffic since.
type baseState struct {
	gen     int64
	net     *lte.Network
	x2      *geo.Graph
	cfg     *lte.Config
	markets []*marketHealth // by market id; nil for untracked markets

	// mu guards dead, the carriers tombstoned since the Load.
	mu   sync.Mutex
	dead map[lte.CarrierID]bool
}

func (st *baseState) market(m int) *marketHealth {
	if m < 0 || m >= len(st.markets) {
		return nil
	}
	return st.markets[m]
}

// deadSet snapshots the tombstoned-carrier set.
func (st *baseState) deadSet() map[lte.CarrierID]bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[lte.CarrierID]bool, len(st.dead))
	for id := range st.dead {
		out[id] = true
	}
	return out
}

// marketHealth is one market's accumulators.
type marketHealth struct {
	id   int
	name string
	// baseCarriers is the live cohort at Load time — the population the
	// shadow refit retrains and probes.
	baseCarriers []lte.CarrierID

	win   window
	drift driftTable

	// ingested / queried count drift rows by source; ops counts applied
	// ingest operations (upserts + tombstones) touching this market,
	// sinceShadow the same since the last shadow check.
	ingested    atomic.Int64
	queried     atomic.Int64
	ops         atomic.Int64
	sinceShadow atomic.Int64

	// shadowMu guards shadow, the last completed shadow-refit result.
	shadowMu sync.Mutex
	shadow   *ShadowResult
}

// New creates a tracker and registers its metric families on reg.
func New(reg *obs.Registry, cfg Config) *Tracker {
	t := &Tracker{cfg: cfg.withDefaults(), degraded: make(map[int]bool)}
	t.confidence = reg.Histogram("auric_prediction_confidence",
		"Confidence of every served recommendation value (vote share after the single-witness discount).",
		[]float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1})
	t.unsupported = reg.GaugeVec("auric_unsupported_ratio",
		"Unsupported share of the per-market serving-quality window (predictions below the 75% voting threshold).",
		"market")
	t.driftPSI = reg.GaugeVec("auric_drift_psi",
		"Population stability index of one attribute column: ingested + queried carriers vs the shard's training base.",
		"market", "column")
	t.shadowDis = reg.GaugeVec("auric_shadow_disagreement_ratio",
		"Share of probe predictions where the incrementally patched serving model disagrees with a fresh refit of the shard's base cohort.",
		"market")
	t.statusG = reg.GaugeVec("auric_health_status",
		"Model-health status per market shard: 0 ok, 1 degraded (see GET /v1/health/model for reasons).",
		"market")
	t.shadowRuns = reg.CounterVec("auric_shadow_refits_total",
		"Shadow refit checks, by outcome.", "ok")
	// Re-evaluate on every scrape so gauges and the degraded hook stay
	// fresh without serving traffic on /v1/health/model.
	reg.OnGather(func() { t.Report() })
	return t
}

// Bind attaches the engine whose shards the tracker scores. Call it once,
// together with SetObserver, before the engine loads or serves.
func (t *Tracker) Bind(eng *core.ShardedEngine) { t.eng.Store(eng) }

// SetJournalLag mirrors the delta journal's replay lag in entries — the
// ops a restart would replay, auricd feeds it alongside
// auric_journal_lag_ops. It feeds the staleness check (Config.MaxLagOps).
func (t *Tracker) SetJournalLag(ops int64) { t.lagOps.Store(ops) }

// marketLabel is the metric label value for one market.
func marketLabel(m int) string { return strconv.Itoa(m) }

// ObserveLoad implements core.Observer: a full retrain resets the
// tracker's baseline — windows, drift bases and shadow cohorts all start
// over against the freshly trained generation.
func (t *Tracker) ObserveLoad(gen int64, net *lte.Network, x2 *geo.Graph, cfg *lte.Config) {
	st := &baseState{gen: gen, net: net, x2: x2, cfg: cfg,
		markets: make([]*marketHealth, len(net.Markets)),
		dead:    make(map[lte.CarrierID]bool)}
	counts := make([]int, len(net.Markets))
	for i := range net.Carriers {
		if m := net.Carriers[i].Market; m >= 0 && m < len(counts) {
			counts[m]++
		}
	}
	for m := range net.Markets {
		if counts[m] == 0 {
			continue
		}
		mh := &marketHealth{id: m, name: net.Markets[m].Name,
			baseCarriers: make([]lte.CarrierID, 0, counts[m])}
		mh.win.init(t.cfg.WindowSize)
		mh.drift.init(int(lte.NumAttributes))
		st.markets[m] = mh
	}
	for i := range net.Carriers {
		c := &net.Carriers[i]
		mh := st.market(c.Market)
		if mh == nil {
			continue
		}
		mh.baseCarriers = append(mh.baseCarriers, c.ID)
		mh.drift.addBase(c.AttributeVector())
	}
	t.state.Store(st)
}

// ObserveApply implements core.Observer: upserted carriers feed the
// drift tables, tombstones the dead set, and the per-market op counters
// drive the automatic shadow-refit trigger.
func (t *Tracker) ObserveApply(gen int64, net *lte.Network, upserts, tombstones []lte.CarrierID) {
	st := t.state.Load()
	if st == nil {
		return
	}
	if len(tombstones) > 0 {
		st.mu.Lock()
		for _, id := range tombstones {
			st.dead[id] = true
		}
		st.mu.Unlock()
	}
	for _, id := range upserts {
		c := &net.Carriers[id]
		mh := st.market(c.Market)
		if mh == nil {
			continue
		}
		mh.drift.addObserved(c.AttributeVector())
		mh.ingested.Add(1)
		t.countOp(st, mh)
	}
	for _, id := range tombstones {
		if mh := st.market(net.Carriers[id].Market); mh != nil {
			t.countOp(st, mh)
		}
	}
}

// countOp counts one applied ingest operation against a market and fires
// the automatic shadow trigger when the configured budget is spent.
func (t *Tracker) countOp(st *baseState, mh *marketHealth) {
	mh.ops.Add(1)
	if t.cfg.ShadowEvery <= 0 {
		return
	}
	if n := mh.sinceShadow.Add(1); n >= t.cfg.ShadowEvery {
		if mh.sinceShadow.CompareAndSwap(n, 0) {
			// The refit trains a scratch engine; run it off the ingest
			// path (ObserveApply holds the engine's load mutex).
			go func() {
				if _, err := t.shadowCheck(st, mh); err != nil {
					t.shadowRuns.With("false").Inc()
				}
			}()
		}
	}
}

// ObserveServed implements core.Observer: every served carrier lands in
// its market's rolling window, the confidence histogram, and the drift
// table's observed column (query traffic drifts too, not just ingest).
func (t *Tracker) ObserveServed(market int, c *lte.Carrier, recs []core.Recommendation) {
	st := t.state.Load()
	if st == nil {
		return
	}
	mh := st.market(market)
	if mh == nil {
		return
	}
	mh.win.record(recs)
	for i := range recs {
		t.confidence.Observe(recs[i].Confidence)
	}
	mh.drift.addObserved(c.AttributeVector())
	mh.queried.Add(1)
}

// Report is the full model-health evaluation: per-shard stats scored
// against the thresholds, gauges refreshed, transitions fired. It is the
// GET /v1/health/model payload.
type Report struct {
	// Generation is the serving generation, BaseGeneration the one the
	// last full retrain installed (their distance is live-ingest churn).
	Generation     int64 `json:"generation"`
	BaseGeneration int64 `json:"baseGeneration"`
	// JournalLagOps is the delta journal's replay lag in entries — the
	// ops-since-compaction staleness a restart would pay.
	JournalLagOps int64 `json:"journalLagOps"`
	// Status is the worst shard status: "ok" or "degraded".
	Status string        `json:"status"`
	Shards []ShardHealth `json:"shards"`
}

// ShardHealth is one market shard's scored health.
type ShardHealth struct {
	Market int    `json:"market"`
	Name   string `json:"name"`
	Status string `json:"status"`
	// Reasons lists the threshold violations behind a degraded status.
	Reasons []string      `json:"reasons,omitempty"`
	Window  WindowStats   `json:"window"`
	Drift   DriftStats    `json:"drift"`
	Shadow  *ShadowResult `json:"shadow,omitempty"`
	// OpsSinceLoad counts applied ingest operations touching this market
	// since the last full retrain.
	OpsSinceLoad int64 `json:"opsSinceLoad"`
}

// Report evaluates every tracked shard. Safe to call concurrently with
// traffic; it reads a consistent snapshot of each accumulator.
func (t *Tracker) Report() Report {
	rep := Report{Status: "ok", JournalLagOps: t.lagOps.Load()}
	st := t.state.Load()
	if st == nil {
		return rep
	}
	rep.BaseGeneration = st.gen
	rep.Generation = st.gen
	if eng := t.eng.Load(); eng != nil {
		rep.Generation = eng.Generation()
	}
	for _, mh := range st.markets {
		if mh == nil {
			continue
		}
		sh := t.evaluate(mh, rep.JournalLagOps)
		if sh.Status != "ok" {
			rep.Status = "degraded"
		}
		rep.Shards = append(rep.Shards, sh)
	}
	t.fireTransitions(rep.Shards)
	return rep
}

// evaluate scores one shard and refreshes its gauges.
func (t *Tracker) evaluate(mh *marketHealth, lag int64) ShardHealth {
	sh := ShardHealth{Market: mh.id, Name: mh.name, Status: "ok",
		OpsSinceLoad: mh.ops.Load()}
	sh.Window = mh.win.stats()
	sh.Drift = mh.drift.stats(mh.ingested.Load(), mh.queried.Load())
	mh.shadowMu.Lock()
	if mh.shadow != nil {
		cp := *mh.shadow
		cp.AgeOps = sh.OpsSinceLoad - cp.opsAt
		sh.Shadow = &cp
	}
	mh.shadowMu.Unlock()

	label := marketLabel(mh.id)
	t.unsupported.With(label).Set(sh.Window.UnsupportedRatio)
	for _, col := range sh.Drift.Columns {
		t.driftPSI.With(label, col.Column).Set(col.PSI)
	}
	if sh.Shadow != nil {
		t.shadowDis.With(label).Set(sh.Shadow.DisagreementRatio)
	}

	var reasons []string
	if t.cfg.MaxUnsupported > 0 && sh.Window.Size >= t.cfg.MinWindow &&
		sh.Window.UnsupportedRatio > t.cfg.MaxUnsupported {
		reasons = append(reasons, fmt.Sprintf("unsupported=%.3f > %.3f over the last %d predictions",
			sh.Window.UnsupportedRatio, t.cfg.MaxUnsupported, sh.Window.Size))
	}
	if t.cfg.MaxPSI > 0 && sh.Drift.IngestedRows+sh.Drift.QueriedRows >= int64(t.cfg.MinDriftRows) &&
		sh.Drift.MaxPSI > t.cfg.MaxPSI {
		reasons = append(reasons, fmt.Sprintf("psi(%s)=%.3f > %.3f",
			sh.Drift.MaxPSIColumn, sh.Drift.MaxPSI, t.cfg.MaxPSI))
	}
	if t.cfg.MaxDisagreement > 0 && sh.Shadow != nil && sh.Shadow.Compared > 0 &&
		sh.Shadow.DisagreementRatio > t.cfg.MaxDisagreement {
		reasons = append(reasons, fmt.Sprintf("shadowDisagreement=%.3f > %.3f (%d of %d probes)",
			sh.Shadow.DisagreementRatio, t.cfg.MaxDisagreement, sh.Shadow.Disagreed, sh.Shadow.Compared))
	}
	if t.cfg.MaxLagOps > 0 && lag > t.cfg.MaxLagOps {
		reasons = append(reasons, fmt.Sprintf("journalLagOps=%d > %d", lag, t.cfg.MaxLagOps))
	}
	if len(reasons) > 0 {
		sh.Status = "degraded"
		sh.Reasons = reasons
		t.statusG.With(label).Set(1)
	} else {
		t.statusG.With(label).Set(0)
	}
	return sh
}

// fireTransitions invokes the configured hook for every shard whose
// status changed since the previous evaluation.
func (t *Tracker) fireTransitions(shards []ShardHealth) {
	if t.cfg.OnTransition == nil {
		return
	}
	t.evalMu.Lock()
	defer t.evalMu.Unlock()
	for i := range shards {
		sh := &shards[i]
		now := sh.Status != "ok"
		if t.degraded[sh.Market] == now {
			continue
		}
		t.degraded[sh.Market] = now
		t.cfg.OnTransition(Transition{Market: sh.Market, Name: sh.Name,
			Degraded: now, Reasons: sh.Reasons})
	}
}
