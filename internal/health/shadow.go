package health

import (
	"fmt"
	"slices"
	"time"

	"auric/internal/lte"
)

// Shadow-refit divergence: cf.Model.Update is proven byte-identical to a
// refit per delta, but that proof runs one delta at a time in tests. In
// production hundreds of deltas compound onto the same shard, and the
// serving model's voting pools slowly diverge from what a fresh fit over
// the same inventory would build. The shadow check bounds that divergence
// empirically: it retrains the shard's Load-time cohort (base inventory
// minus carriers tombstoned since) on a scratch engine and replays a
// sampled set of attribute-stable probe carriers against both models. The
// disagreement ratio is 0 for a healthy shard — churn that only adds and
// removes label-consistent carriers never flips a vote — and rises when
// ingested carriers pull voting pools toward different labels.

// ShadowResult reports one shadow-refit divergence check.
type ShadowResult struct {
	// Generation is the serving generation probed, BaseGeneration the
	// Load generation whose cohort the scratch engine retrained.
	Generation     int64 `json:"generation"`
	BaseGeneration int64 `json:"baseGeneration"`
	// Probes is the number of carriers replayed; Compared the singular
	// predictions compared; Disagreed how many labels differed.
	Probes    int `json:"probes"`
	Compared  int `json:"compared"`
	Disagreed int `json:"disagreed"`
	// DisagreementRatio is Disagreed / Compared (0 when nothing compared).
	DisagreementRatio float64 `json:"disagreementRatio"`
	Seconds           float64 `json:"seconds"`
	// AgeOps counts ingest operations applied to the market after this
	// check completed — how stale the result is.
	AgeOps int64 `json:"ageOps"`

	opsAt int64 // market op counter when the check completed
}

// RefreshShadow runs a shadow check for every tracked market — the
// synchronous path behind GET /v1/health/model?refresh=shadow.
func (t *Tracker) RefreshShadow() error {
	st := t.state.Load()
	if st == nil {
		return fmt.Errorf("health: no baseline loaded")
	}
	for _, mh := range st.markets {
		if mh == nil {
			continue
		}
		if _, err := t.shadowCheck(st, mh); err != nil {
			t.shadowRuns.With("false").Inc()
			return fmt.Errorf("health: shadow check of market %d: %w", mh.id, err)
		}
	}
	return nil
}

func (t *Tracker) shadowCheck(st *baseState, mh *marketHealth) (*ShadowResult, error) {
	t.shadowMu.Lock()
	defer t.shadowMu.Unlock()
	start := time.Now()
	eng := t.eng.Load()
	if eng == nil {
		return nil, fmt.Errorf("health: tracker not bound to an engine")
	}
	cur, curNet, curGen, err := eng.MarketEngine(mh.id)
	if err != nil {
		return nil, err
	}
	dead := st.deadSet()

	// The scratch engine reproduces what Load would train for this market
	// over the base inventory, minus everything tombstoned since.
	bnet := st.net
	scratch, err := eng.FitMarket(bnet, st.x2, st.cfg, mh.id, dead)
	if err != nil {
		return nil, fmt.Errorf("health: shadow refit of market %d: %w", mh.id, err)
	}

	// Probes: live cohort carriers whose attributes are unchanged between
	// the base and serving inventories, so a label difference can only
	// come from the models — never from the query row itself.
	probes := make([]lte.CarrierID, 0, len(mh.baseCarriers))
	for _, id := range mh.baseCarriers {
		if dead[id] || int(id) >= len(curNet.Carriers) {
			continue
		}
		if !slices.Equal(bnet.Carriers[id].AttributeVector(), curNet.Carriers[id].AttributeVector()) {
			continue
		}
		probes = append(probes, id)
	}
	if max := t.cfg.ShadowProbes; max > 0 && len(probes) > max {
		// Deterministic even sampling across the cohort.
		sampled := make([]lte.CarrierID, 0, max)
		for k := 0; k < max; k++ {
			sampled = append(sampled, probes[k*len(probes)/max])
		}
		probes = sampled
	}

	res := &ShadowResult{Generation: curGen, BaseGeneration: st.gen, Probes: len(probes)}
	labels := make(map[int]string)
	for _, id := range probes {
		fresh, err := scratch.Recommend(&bnet.Carriers[id], nil)
		if err != nil {
			return nil, fmt.Errorf("health: shadow probe %d (fresh): %w", id, err)
		}
		serving, err := cur.Recommend(&curNet.Carriers[id], nil)
		if err != nil {
			return nil, fmt.Errorf("health: shadow probe %d (serving): %w", id, err)
		}
		clear(labels)
		for i := range fresh {
			if fresh[i].Neighbor == -1 {
				labels[fresh[i].ParamIndex] = fresh[i].Label
			}
		}
		for i := range serving {
			if serving[i].Neighbor != -1 {
				continue
			}
			want, ok := labels[serving[i].ParamIndex]
			if !ok {
				continue
			}
			res.Compared++
			if want != serving[i].Label {
				res.Disagreed++
			}
		}
	}
	if res.Compared > 0 {
		res.DisagreementRatio = float64(res.Disagreed) / float64(res.Compared)
	}
	res.Seconds = time.Since(start).Seconds()

	mh.shadowMu.Lock()
	res.opsAt = mh.ops.Load()
	mh.shadow = res
	mh.shadowMu.Unlock()
	t.shadowDis.With(marketLabel(mh.id)).Set(res.DisagreementRatio)
	t.shadowRuns.With("true").Inc()
	return res, nil
}
