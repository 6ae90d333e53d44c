package core

// Live carrier ingest: ShardedEngine.Apply absorbs upserts and tombstones
// into a new serving generation without retraining. The delta is validated
// against the current inventory, and the new generation shares what the
// delta leaves alone: the network copies its carrier and eNodeB slices but
// clones only the touched eNodeBs' carrier lists; the configuration is an
// lte.Config Clone, which copies only the carrier rows the delta writes; and
// the X2 graph recomputes only the touched markets' neighbor lists. Only the
// affected markets' parameter models are touched — each one patched in
// place through cf.Model.Update, which absorbs a shift of the chi-square
// dependent set like any other change. Untouched markets carry their fitted
// models into the new generation by reference.
// The generation swap and drain reuse Load's machinery, so readers of the
// retiring generation finish undisturbed and Apply is atomic: on any error
// the serving state is exactly what it was.

import (
	"fmt"
	"slices"
	"time"

	"auric/internal/dataset"
	"auric/internal/geo"
	"auric/internal/lte"
	"auric/internal/obs"
	"auric/internal/paramspec"
)

// Ingest metrics: apply cadence and how many patched models saw their
// dependent set change, which re-keys their exact-match index
// (OPERATIONS.md).
var (
	ingestApplySeconds = obs.Default().Histogram("auric_ingest_apply_seconds",
		"Wall-clock seconds per ShardedEngine.Apply call (delta validated, models patched, generation swapped).", obs.DefBuckets)
	ingestModelsPatched = obs.Default().Counter("auric_ingest_models_patched_total",
		"Parameter models patched by live ingest with their chi-square dependent set unchanged.")
	ingestModelsRefit = obs.Default().Counter("auric_ingest_models_refit_total",
		"Parameter models patched by live ingest whose chi-square dependent set changed, which rebuilds their exact-match index.")

	// ApplyStageSeconds splits one apply into its stages. Apply observes
	// validate, inventory, config, x2, patch and swap; auricd observes
	// journal (append + fsync) after Apply returns.
	ApplyStageSeconds = obs.Default().HistogramVec("auric_apply_stage_seconds",
		"Seconds per live-ingest apply stage: validate, inventory, config, x2, patch, swap (install + drain), journal (append + fsync).",
		obs.DefBuckets, "stage")
	stageValidate  = ApplyStageSeconds.With("validate")
	stageInventory = ApplyStageSeconds.With("inventory")
	stageConfig    = ApplyStageSeconds.With("config")
	stageX2        = ApplyStageSeconds.With("x2")
	stagePatch     = ApplyStageSeconds.With("patch")
	stageSwap      = ApplyStageSeconds.With("swap")
)

// lap observes the time since start on a stage histogram and returns now,
// the start of the next stage.
func lap(h *obs.Histogram, start time.Time) time.Time {
	now := time.Now()
	h.Observe(now.Sub(start).Seconds())
	return now
}

// PairValues carries pair-wise parameter values for one directed relation of
// an upserted carrier.
type PairValues struct {
	// To is the neighbor carrier of the relation. It must be live: either an
	// existing carrier or one created earlier in the same Delta.
	To lte.CarrierID
	// Values maps schema indices of pair-wise parameters to their values.
	Values map[int]float64
}

// Upsert creates or replaces one carrier.
type Upsert struct {
	// Carrier holds the full attribute record. ID -1 creates a new carrier
	// (Apply assigns the next id); an existing id replaces that carrier's
	// attributes wholesale. The eNodeB must exist and its market must match
	// Carrier.Market; an existing carrier cannot change market.
	Carrier lte.Carrier
	// Config maps schema indices of singular parameters to values. Omitted
	// parameters keep their current value (new carriers start at each
	// parameter's minimum).
	Config map[int]float64
	// Pairs configures pair-wise parameters toward specific neighbors. Only
	// relations that are also X2-adjacent after the delta contribute
	// training rows.
	Pairs []PairValues
}

// Delta is one atomic batch of inventory changes. Apply installs all of it
// or none of it.
type Delta struct {
	Upserts []Upsert
	// Tombstones removes carriers from service: their rows leave every
	// model, they disappear from X2 adjacency, and further upserts of the
	// id are rejected. Ids stay allocated (the inventory is append-only).
	Tombstones []lte.CarrierID
}

// ApplyResult reports an installed delta.
type ApplyResult struct {
	// Generation is the serving generation the delta produced.
	Generation int64
	// Assigned lists the carrier id of each upsert, parallel to
	// Delta.Upserts (newly created carriers get fresh ids).
	Assigned []lte.CarrierID
	// Patched and Refit split the parameter models the delta updated:
	// Patched kept their chi-square dependent set, Refit saw it change.
	// Both are patched in place; a Refit model's exact-match index is
	// rebuilt over its live rows and its entering columns get posting
	// lists. (A new order of the same set counts as Patched: it changes no
	// match structure.)
	Patched, Refit int
}

// marketDelta is the per-market slice of a validated Delta, in the terms the
// model patch consumes: rows to add and sites to tombstone, for the singular
// and pair-wise bases.
type marketDelta struct {
	addIDs   []lte.CarrierID // carriers whose singular row is (re-)added
	rmSing   []dataset.Site  // singular sites to tombstone
	addEdges []lte.EdgeKey   // directed relations whose pair row is (re-)added
	rmPair   []dataset.Site  // pair sites to tombstone
}

// Apply installs a delta as a new serving generation, patching only the
// affected markets' models (see the package comment above). It returns once
// the previous generation has drained, like Load. The delta is atomic:
// validation errors, and any patch failure, leave the serving state
// untouched.
//
// Apply requires an unsampled training set (Options.MaxSamples must be
// zero).
func (se *ShardedEngine) Apply(d Delta) (ApplyResult, error) {
	se.loadMu.Lock()
	defer se.loadMu.Unlock()
	t := time.Now()
	defer obs.Since(ingestApplySeconds, t)
	cur := se.state.Load()
	if cur == nil {
		return ApplyResult{}, fmt.Errorf("core: sharded engine not loaded")
	}
	if cur.cfg == nil {
		return ApplyResult{}, fmt.Errorf("core: serving state has no configuration snapshot")
	}
	if se.opts.MaxSamples > 0 {
		return ApplyResult{}, fmt.Errorf("core: live ingest requires the full training set (MaxSamples is %d)", se.opts.MaxSamples)
	}
	if len(d.Upserts) == 0 && len(d.Tombstones) == 0 {
		return ApplyResult{Generation: cur.gen}, nil
	}

	assigned, tombs, err := se.validate(cur, d)
	if err != nil {
		return ApplyResult{}, err
	}
	t = lap(stageValidate, t)

	// Copy-on-write inventory: carriers and eNodeBs are fresh slices, and
	// only eNodeB carrier lists the delta touches are cloned. Tombstoned
	// carriers keep their slot in Carriers (the id space is append-only)
	// but leave their eNodeB's list, so X2 adjacency no longer sees them.
	oldLen := len(cur.net.Carriers)
	carriers := slices.Clone(cur.net.Carriers)
	enodebs := slices.Clone(cur.net.ENodeBs)
	for i := oldLen; i < oldLen+len(d.Upserts); i++ {
		carriers = append(carriers, lte.Carrier{}) // slots for new ids
	}
	carriers = carriers[:oldLen+countNew(assigned, oldLen)]
	cloned := make(map[lte.ENodeBID]bool)
	listOf := func(e lte.ENodeBID) []lte.CarrierID {
		if !cloned[e] {
			enodebs[e].Carriers = slices.Clone(enodebs[e].Carriers)
			cloned[e] = true
		}
		return enodebs[e].Carriers
	}
	removeFrom := func(e lte.ENodeBID, id lte.CarrierID) {
		l := listOf(e)
		if i := slices.Index(l, id); i >= 0 {
			enodebs[e].Carriers = slices.Delete(l, i, i+1)
		}
	}
	for i := range d.Upserts {
		id := assigned[i]
		c := d.Upserts[i].Carrier
		c.ID = id
		if int(id) < oldLen {
			if old := cur.net.Carriers[id].ENodeB; old != c.ENodeB {
				removeFrom(old, id)
				enodebs[c.ENodeB].Carriers = append(listOf(c.ENodeB), id)
			}
		} else {
			enodebs[c.ENodeB].Carriers = append(listOf(c.ENodeB), id)
		}
		carriers[id] = c
	}
	for _, id := range tombs {
		removeFrom(carriers[id].ENodeB, id)
	}
	net2 := &lte.Network{Markets: cur.net.Markets, ENodeBs: enodebs, Carriers: carriers}
	if err := net2.Validate(); err != nil {
		return ApplyResult{}, fmt.Errorf("core: delta produced an inconsistent network: %w", err)
	}
	// An installed generation's tombstone set is never written, so a delta
	// without tombstones shares it instead of copying every id ever
	// tombstoned.
	dead2 := cur.dead
	if len(tombs) > 0 {
		dead2 = make(map[lte.CarrierID]bool, len(cur.dead)+len(tombs))
		for id := range cur.dead {
			dead2[id] = true
		}
		for _, id := range tombs {
			dead2[id] = true
		}
	}
	t = lap(stageInventory, t)

	cfg2 := cur.cfg.Clone()
	cfg2.Grow(len(carriers) - oldLen)
	for i := range d.Upserts {
		u := &d.Upserts[i]
		id := assigned[i]
		for pi, v := range u.Config {
			cfg2.Set(id, pi, v)
		}
		for _, pv := range u.Pairs {
			for pi, v := range pv.Values {
				cfg2.SetPair(id, pv.To, pi, v)
			}
		}
	}
	t = lap(stageConfig, t)

	// X2 adjacency is strictly intra-market and Apply never adds, moves or
	// re-markets an eNodeB, so only the touched markets' carrier neighbor
	// lists can change; the rest of the graph is shared with the old one.
	mds := marketDeltas(net2, assigned, tombs, oldLen)
	markets := make([]int, 0, len(mds))
	for m := range mds {
		markets = append(markets, m)
	}
	x22 := cur.x2.RebuildMarkets(net2, markets)
	t = lap(stageX2, t)

	changed := make(map[lte.CarrierID]bool, len(assigned)+len(tombs))
	for _, ids := range [][]lte.CarrierID{assigned, tombs} {
		for _, id := range ids {
			changed[id] = true
		}
	}
	for m, md := range mds {
		md.diffPairs(cur, x22, x22.MarketCarriers(m), changed, dead2, oldLen)
	}

	// Patch the affected markets; rebind the rest onto the new inventory
	// with their fitted models shared by reference.
	shards := make([]*Engine, len(net2.Markets))
	res := ApplyResult{Generation: cur.gen + 1, Assigned: assigned}
	for m := range cur.shards {
		e := cur.shards[m]
		if e == nil {
			continue
		}
		md := mds[m]
		if md == nil {
			shards[m] = &Engine{opts: e.opts, schema: e.schema, net: net2, x2: x22, models: e.models}
			continue
		}
		ne, patched, refit, err := e.patched(net2, x22, cfg2, shardFilter(net2, m, dead2), md)
		if err != nil {
			return ApplyResult{}, err
		}
		shards[m] = ne
		res.Patched += patched
		res.Refit += refit
	}

	ingestModelsPatched.Add(uint64(res.Patched))
	ingestModelsRefit.Add(uint64(res.Refit))
	t = lap(stagePatch, t)
	se.install(&shardState{gen: res.Generation, net: net2, x2: x22, cfg: cfg2, dead: dead2, shards: shards})
	lap(stageSwap, t)
	if o := se.observer(); o != nil {
		o.ObserveApply(res.Generation, net2, assigned, tombs)
	}
	return res, nil
}

// SnapshotState returns the serving inventory in persistable form: the
// network (tombstoned carriers still occupy their Carriers slot), the
// configuration, the sorted tombstone list, and the generation. Compaction
// writes exactly this state; reloading it and re-applying the tombstones
// reproduces the serving models (the ingest equivalence tests pin that).
func (se *ShardedEngine) SnapshotState() (*lte.Network, *lte.Config, []lte.CarrierID, int64, error) {
	st, err := se.acquire()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	defer st.release()
	dead := make([]lte.CarrierID, 0, len(st.dead))
	for id := range st.dead {
		dead = append(dead, id)
	}
	slices.Sort(dead)
	return st.net, st.cfg, dead, st.gen, nil
}

// countNew reports how many of the assigned ids are newly created (at or
// beyond the previous inventory length).
func countNew(assigned []lte.CarrierID, oldLen int) int {
	n := 0
	for _, id := range assigned {
		if int(id) >= oldLen {
			n++
		}
	}
	return n
}

// validate checks a delta against the current serving state and resolves the
// id of every upsert. It rejects anything the patch path cannot absorb:
// unknown eNodeBs, markets without a trained shard, cross-market rehomes,
// upserts of tombstoned ids, conflicting items, invalid parameter indices,
// and tombstones that would empty a market.
func (se *ShardedEngine) validate(cur *shardState, d Delta) (assigned, tombs []lte.CarrierID, err error) {
	oldLen := len(cur.net.Carriers)
	tombSet := make(map[lte.CarrierID]bool, len(d.Tombstones))
	for _, id := range d.Tombstones {
		if int(id) < 0 || int(id) >= oldLen {
			return nil, nil, fmt.Errorf("core: tombstone of carrier %d outside the %d known carriers", id, oldLen)
		}
		if cur.dead[id] {
			return nil, nil, fmt.Errorf("core: carrier %d is already tombstoned", id)
		}
		if tombSet[id] {
			return nil, nil, fmt.Errorf("core: carrier %d tombstoned twice in one delta", id)
		}
		tombSet[id] = true
		tombs = append(tombs, id)
	}

	assigned = make([]lte.CarrierID, len(d.Upserts))
	touched := make(map[lte.CarrierID]bool, len(d.Upserts))
	newMarket := make(map[lte.CarrierID]int) // markets of ids created by this delta
	next := lte.CarrierID(oldLen)
	for i := range d.Upserts {
		c := &d.Upserts[i].Carrier
		if int(c.ENodeB) < 0 || int(c.ENodeB) >= len(cur.net.ENodeBs) {
			return nil, nil, fmt.Errorf("core: upsert %d references eNodeB %d outside the %d known eNodeBs", i, c.ENodeB, len(cur.net.ENodeBs))
		}
		m := cur.net.ENodeBs[c.ENodeB].Market
		if c.Market != m {
			return nil, nil, fmt.Errorf("core: upsert %d claims market %d but eNodeB %d is in market %d", i, c.Market, c.ENodeB, m)
		}
		if cur.shards[m] == nil {
			return nil, nil, fmt.Errorf("core: market %d has no trained shard; live ingest needs an initial snapshot covering the market", m)
		}
		if c.Face < 0 || c.Face > 2 {
			return nil, nil, fmt.Errorf("core: upsert %d has face %d, want 0-2", i, c.Face)
		}
		var id lte.CarrierID
		switch {
		case c.ID == -1:
			id = next
			next++
			newMarket[id] = m
		case int(c.ID) >= 0 && int(c.ID) < oldLen:
			id = c.ID
			if cur.dead[id] {
				return nil, nil, fmt.Errorf("core: carrier %d is tombstoned and cannot be upserted", id)
			}
			if tombSet[id] {
				return nil, nil, fmt.Errorf("core: carrier %d both upserted and tombstoned in one delta", id)
			}
			if cur.net.Carriers[id].Market != m {
				return nil, nil, fmt.Errorf("core: carrier %d cannot move from market %d to market %d", id, cur.net.Carriers[id].Market, m)
			}
		default:
			return nil, nil, fmt.Errorf("core: upsert %d has carrier id %d; use -1 to create or an existing id to replace", i, c.ID)
		}
		if touched[id] {
			return nil, nil, fmt.Errorf("core: carrier %d upserted twice in one delta", id)
		}
		touched[id] = true
		assigned[i] = id

		schema := se.schema
		for pi := range d.Upserts[i].Config {
			if pi < 0 || pi >= schema.Len() || schema.At(pi).Kind != paramspec.Singular {
				return nil, nil, fmt.Errorf("core: upsert %d configures invalid singular parameter index %d", i, pi)
			}
		}
		for _, pv := range d.Upserts[i].Pairs {
			for pi := range pv.Values {
				if pi < 0 || pi >= schema.Len() || schema.At(pi).Kind != paramspec.PairWise {
					return nil, nil, fmt.Errorf("core: upsert %d configures invalid pair-wise parameter index %d", i, pi)
				}
			}
			to := pv.To
			if to == id {
				return nil, nil, fmt.Errorf("core: upsert %d configures a self relation on carrier %d", i, id)
			}
			var toMarket int
			switch {
			case int(to) >= 0 && int(to) < oldLen && !cur.dead[to] && !tombSet[to]:
				toMarket = cur.net.Carriers[to].Market
			case int(to) >= oldLen && int(to) < int(next):
				toMarket = newMarket[to]
			default:
				return nil, nil, fmt.Errorf("core: upsert %d configures a relation to carrier %d, which is not live", i, to)
			}
			if toMarket != m {
				return nil, nil, fmt.Errorf("core: upsert %d configures a cross-market relation %d -> %d", i, id, to)
			}
		}
	}

	// A market must keep at least one live carrier: the patch path cannot
	// train an emptied market back from nothing.
	delta := make(map[int]int)
	for _, id := range tombs {
		delta[cur.net.Carriers[id].Market]--
	}
	for _, m := range newMarket {
		delta[m]++
	}
	for m, dn := range delta {
		if dn >= 0 {
			continue
		}
		if shardSize(cur.net, cur.x2, m, cur.dead)+dn <= 0 {
			return nil, nil, fmt.Errorf("core: delta would leave market %d with no live carriers", m)
		}
	}
	return assigned, tombs, nil
}

// marketDeltas slices the validated delta per affected market: the carriers
// it adds or replaces, and the singular rows it retires. Every market a delta
// touches has an entry.
func marketDeltas(net2 *lte.Network, assigned, tombs []lte.CarrierID, oldLen int) map[int]*marketDelta {
	mds := make(map[int]*marketDelta)
	md := func(m int) *marketDelta {
		if mds[m] == nil {
			mds[m] = &marketDelta{}
		}
		return mds[m]
	}
	for _, id := range assigned {
		m := md(net2.Carriers[id].Market)
		m.addIDs = append(m.addIDs, id)
		if int(id) < oldLen {
			// Replacing an existing carrier: its old singular row retires.
			m.rmSing = append(m.rmSing, dataset.Site{From: id, To: -1})
		}
	}
	for _, id := range tombs {
		m := md(net2.Carriers[id].Market)
		m.rmSing = append(m.rmSing, dataset.Site{From: id, To: -1})
	}
	for _, m := range mds {
		slices.Sort(m.addIDs)
	}
	return mds
}

// diffPairs diffs the old and new X2 adjacency of a market's carriers (ids,
// ascending) to find every pair row the change invalidates. A row is
// re-added (tombstone + append) whenever either endpoint's attributes
// changed, and added or removed when the adjacency itself changed — which
// can happen to carriers far from the delta when a new carrier pushes a
// neighbor past the per-carrier cap.
func (m *marketDelta) diffPairs(cur *shardState, x22 *geo.Graph, ids []lte.CarrierID,
	changed, dead2 map[lte.CarrierID]bool, oldLen int) {
	for _, id := range ids {
		var oldList []lte.CarrierID
		if int(id) < oldLen && !cur.dead[id] {
			oldList = cur.x2.CarrierNeighbors(id)
		}
		var newList []lte.CarrierID
		if !dead2[id] {
			newList = x22.CarrierNeighbors(id)
		}
		switch {
		case changed[id]:
			for _, b := range oldList {
				m.rmPair = append(m.rmPair, dataset.Site{From: id, To: b})
			}
			for _, b := range newList {
				m.addEdges = append(m.addEdges, lte.EdgeKey{From: id, To: b})
			}
		case slices.Equal(oldList, newList):
			for _, b := range oldList {
				if changed[b] {
					m.rmPair = append(m.rmPair, dataset.Site{From: id, To: b})
					m.addEdges = append(m.addEdges, lte.EdgeKey{From: id, To: b})
				}
			}
		default:
			oldSet := make(map[lte.CarrierID]bool, len(oldList))
			for _, b := range oldList {
				oldSet[b] = true
			}
			newSet := make(map[lte.CarrierID]bool, len(newList))
			for _, b := range newList {
				newSet[b] = true
			}
			for _, b := range oldList {
				if !newSet[b] || changed[b] {
					m.rmPair = append(m.rmPair, dataset.Site{From: id, To: b})
				}
			}
			for _, b := range newList {
				if !oldSet[b] || changed[b] {
					m.addEdges = append(m.addEdges, lte.EdgeKey{From: id, To: b})
				}
			}
		}
	}
}

// patched returns a copy of the engine over the new inventory with its
// models absorbed into the market delta: the shared singular and pair-wise
// columnar bases are extended copy-on-write once each, then every parameter
// model is updated sequentially (appends to the shared site slices must not
// race). Models whose base saw no change carry over by reference.
func (e *Engine) patched(net *lte.Network, x2 *geo.Graph, cfg *lte.Config, keep dataset.Filter,
	md *marketDelta) (*Engine, int, int, error) {
	ne := &Engine{opts: e.opts, schema: e.schema, net: net, x2: x2}
	models := slices.Clone(e.models)
	patched, refit := 0, 0

	// Rows only exist for carriers the shard trains on; keep (the shard's
	// shardFilter) drops adds outside it (tombstones of filtered carriers
	// match no row and are ignored by Update).
	var singSites, pairSites []dataset.Site
	var singRows, pairRows [][]string
	for _, id := range md.addIDs {
		if keep(id) {
			singSites = append(singSites, dataset.Site{From: id, To: -1})
			singRows = append(singRows, net.Carriers[id].AttributeVector())
		}
	}
	for _, k := range md.addEdges {
		if keep(k.From) {
			pairSites = append(pairSites, dataset.Site{From: k.From, To: k.To})
			pairRows = append(pairRows, lte.PairAttributeVector(&net.Carriers[k.From], &net.Carriers[k.To]))
		}
	}

	// The singular and pair-wise bases patch the same way; a site's To
	// tells which configuration lookup its sample needs.
	for _, b := range []struct {
		pis   []int
		sites []dataset.Site // one per added row
		rows  [][]string
		rm    []dataset.Site
	}{
		{e.schema.Singular(), singSites, singRows, md.rmSing},
		{e.schema.PairWise(), pairSites, pairRows, md.rmPair},
	} {
		if len(b.pis) == 0 || (len(b.sites) == 0 && len(b.rm) == 0) {
			continue
		}
		ext := dataset.ExtendBase(e.models[b.pis[0]].Table(), b.rows)
		for _, pi := range b.pis {
			m := e.models[pi]
			t2 := ext.Rebase(m.Table())
			spec := e.schema.At(pi)
			for k, site := range b.sites {
				var v float64
				if site.To < 0 {
					v = cfg.Get(site.From, pi)
				} else if pv, ok := cfg.GetPair(site.From, site.To, pi); ok {
					v = pv
				} else {
					continue // unconfigured relations carry no sample, as at build
				}
				t2.AppendSample(ext.FirstRow()+int32(k), spec.Format(v), v, site)
			}
			nm, sameSet, err := m.Update(t2, b.rm)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("core: patching %s: %w", spec.Name, err)
			}
			models[pi] = nm
			if sameSet {
				patched++
			} else {
				refit++
			}
		}
	}
	ne.models = models
	return ne, patched, refit, nil
}
