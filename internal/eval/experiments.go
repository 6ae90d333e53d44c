package eval

import (
	"fmt"
	"sort"
	"sync"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/learn/cf"
	"auric/internal/learn/forest"
	"auric/internal/learn/knn"
	"auric/internal/learn/mlp"
	"auric/internal/learn/tree"
	"auric/internal/netsim"
	"auric/internal/stats"
)

// Learners evaluated as global learners in Table 4 / Fig 10, in the
// paper's column order.
var GlobalLearners = []string{
	"random-forest",
	"k-nearest-neighbors",
	"decision-tree",
	"deep-neural-network",
	"collaborative-filtering",
}

// LearnerSpec names a learner and how to build it for an experiment run.
type LearnerSpec struct {
	Name  string
	Build func() learn.Learner
}

// DefaultLearnerSpecs returns the five global learners. quick=false uses
// the paper's exact hyperparameters; quick=true shrinks the two expensive
// ensembles (forest size, MLP epochs/architecture depth) so that the
// benches complete in minutes — the relative ordering is preserved (see
// EXPERIMENTS.md for a full-fidelity run). workers bounds the forest's
// parallel tree growth (zero or negative: one per CPU); it changes timing
// only, never the fitted ensembles.
func DefaultLearnerSpecs(quick bool, workers int) []LearnerSpec {
	specs := []LearnerSpec{
		{Name: "random-forest", Build: func() learn.Learner {
			return &forest.Learner{Opts: forest.Options{Workers: workers}}
		}},
		{Name: "k-nearest-neighbors", Build: func() learn.Learner { return knn.New() }},
		{Name: "decision-tree", Build: func() learn.Learner { return tree.New() }},
		{Name: "deep-neural-network", Build: func() learn.Learner { return mlp.New() }},
		{Name: "collaborative-filtering", Build: func() learn.Learner { return cf.New() }},
	}
	if quick {
		specs[0].Build = func() learn.Learner {
			return &forest.Learner{Opts: forest.Options{Trees: 30, Workers: workers, Seed: 1}}
		}
		specs[3].Build = func() learn.Learner {
			return &mlp.Learner{Opts: mlp.Options{Hidden: []int{64, 32}, Epochs: 12, Batch: 64, Seed: 1}}
		}
	}
	return specs
}

// VariabilityRow is one bar of Fig 2: a parameter and its network-wide
// number of distinct values.
type VariabilityRow struct {
	Param    string
	Distinct int
}

// Fig2 computes the distinct-value count of every parameter across the
// whole network, sorted descending (the paper reverse-sorts by distinct
// values).
func Fig2(w *netsim.World) []VariabilityRow {
	b := dataset.NewBuilder(w.Net, w.X2, nil)
	rows := make([]VariabilityRow, w.Schema.Len())
	for pi := 0; pi < w.Schema.Len(); pi++ {
		t := b.Labeled(w.Current, pi)
		rows[pi] = VariabilityRow{Param: w.Schema.At(pi).Name, Distinct: t.LabelDict.Len()}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Distinct != rows[j].Distinct {
			return rows[i].Distinct > rows[j].Distinct
		}
		return rows[i].Param < rows[j].Param
	})
	return rows
}

// MarketVariabilityRow is one row of Fig 3: distinct values of a parameter
// per market.
type MarketVariabilityRow struct {
	Param     string
	PerMarket []int // indexed by market ID
}

// Fig3 computes the per-market distinct-value counts of every parameter.
func Fig3(w *netsim.World) []MarketVariabilityRow {
	builders := marketBuilders(w)
	out := make([]MarketVariabilityRow, w.Schema.Len())
	for pi := 0; pi < w.Schema.Len(); pi++ {
		row := MarketVariabilityRow{
			Param:     w.Schema.At(pi).Name,
			PerMarket: make([]int, len(w.Net.Markets)),
		}
		for m := range w.Net.Markets {
			t := builders[m].Labeled(w.Current, pi)
			row.PerMarket[m] = t.LabelDict.Len()
		}
		out[pi] = row
	}
	return out
}

// marketBuilders prepares one shared-base table builder per market, so
// experiments that sweep (market, parameter) build each market's attribute
// rows once instead of once per parameter.
func marketBuilders(w *netsim.World) []*dataset.Builder {
	out := make([]*dataset.Builder, len(w.Net.Markets))
	for m := range out {
		out[m] = dataset.NewBuilder(w.Net, w.X2, dataset.MarketFilter(w.Net, m))
	}
	return out
}

// SkewRow is one row of Fig 4: per-market skewness of a parameter's value
// distribution plus the pooled network-wide classification.
type SkewRow struct {
	Param     string
	PerMarket []float64
	Pooled    float64
	Class     stats.SkewClass
}

// Fig4 computes parameter skewness per market and pooled, with the
// paper's symmetric / moderately / highly skewed classification.
func Fig4(w *netsim.World) (rows []SkewRow, byClass map[stats.SkewClass]int) {
	byClass = map[stats.SkewClass]int{}
	builders := marketBuilders(w)
	for pi := 0; pi < w.Schema.Len(); pi++ {
		row := SkewRow{
			Param:     w.Schema.At(pi).Name,
			PerMarket: make([]float64, len(w.Net.Markets)),
		}
		var pooled []float64
		for m := range w.Net.Markets {
			t := builders[m].Labeled(w.Current, pi)
			row.PerMarket[m] = stats.Skewness(t.Values)
			pooled = append(pooled, t.Values...)
		}
		row.Pooled = stats.Skewness(pooled)
		row.Class = stats.ClassifySkew(row.Pooled)
		byClass[row.Class]++
		rows = append(rows, row)
	}
	return rows, byClass
}

// Table3Row summarizes one evaluation market (Table 3).
type Table3Row struct {
	Market      int
	Name        string
	Timezone    string
	Carriers    int
	ENodeBs     int
	ParamValues int // singular samples + pair-wise samples
}

// PickTimezoneMarkets selects one market per timezone (the lowest market
// ID of each), matching Table 3's design of four markets in four
// timezones.
func PickTimezoneMarkets(w *netsim.World) []int {
	seen := map[string]int{}
	var order []string
	for _, m := range w.Net.Markets {
		if _, ok := seen[m.Timezone]; !ok {
			seen[m.Timezone] = m.ID
			order = append(order, m.Timezone)
		}
	}
	var out []int
	for _, tz := range order {
		out = append(out, seen[tz])
	}
	sort.Ints(out)
	return out
}

// Table3 summarizes the given markets.
func Table3(w *netsim.World, markets []int) []Table3Row {
	var out []Table3Row
	for _, m := range markets {
		row := Table3Row{Market: m, Name: w.Net.Markets[m].Name, Timezone: w.Net.Markets[m].Timezone}
		row.Carriers = len(w.Net.CarriersInMarket(m))
		row.ENodeBs = w.Net.ENodeBsInMarket(m)
		row.ParamValues = row.Carriers * len(w.Schema.Singular())
		for _, id := range w.Net.CarriersInMarket(m) {
			row.ParamValues += len(w.X2.CarrierNeighbors(id)) * len(w.Schema.PairWise())
		}
		out = append(out, row)
	}
	return out
}

// LearnerResult is one learner's accuracy per market and overall (Table 4).
type LearnerResult struct {
	Learner   string
	PerMarket map[int]Result
	Overall   Result
}

// Fig10Row is one x-position of Fig 10: a parameter, its distinct-value
// count in the market, and each learner's accuracy on it.
type Fig10Row struct {
	Param    string
	Distinct int
	Acc      map[string]float64
}

// GlobalLearnerComparison runs every learner over every parameter of the
// given markets with grouped cross-validation. It returns the Table 4
// aggregate per learner and the Fig 10 per-parameter detail per market
// (sorted by descending variability). nil specs means the paper-exact
// DefaultLearnerSpecs(false).
func GlobalLearnerComparison(w *netsim.World, markets []int, specs []LearnerSpec, cv CVOptions) ([]LearnerResult, map[int][]Fig10Row, error) {
	if specs == nil {
		specs = DefaultLearnerSpecs(false, cv.Workers)
	}
	type cell struct {
		market, param int
		learner       string
		res           Result
		distinct      int
	}
	var (
		mu    sync.Mutex
		cells []cell
	)
	for _, m := range markets {
		market := m
		b := dataset.NewBuilder(w.Net, w.X2, dataset.MarketFilter(w.Net, market))
		err := forEachParam(cv.Workers, allParams(w), func(pi int) error {
			t := b.Labeled(w.Current, pi)
			distinct := t.LabelDict.Len()
			for _, spec := range specs {
				res, err := CrossValidate(t, spec.Build(), cv, nil)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", spec.Name, w.Schema.At(pi).Name, err)
				}
				mu.Lock()
				cells = append(cells, cell{market, pi, spec.Name, res, distinct})
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}

	// Aggregate Table 4.
	byLearner := map[string]*LearnerResult{}
	for _, spec := range specs {
		byLearner[spec.Name] = &LearnerResult{Learner: spec.Name, PerMarket: map[int]Result{}}
	}
	for _, c := range cells {
		lr := byLearner[c.learner]
		pm := lr.PerMarket[c.market]
		pm.Add(c.res)
		lr.PerMarket[c.market] = pm
		lr.Overall.Add(c.res)
	}
	var results []LearnerResult
	for _, spec := range specs {
		results = append(results, *byLearner[spec.Name])
	}

	// Assemble Fig 10 detail.
	type key struct{ market, param int }
	rows := map[key]*Fig10Row{}
	for _, c := range cells {
		k := key{c.market, c.param}
		r, ok := rows[k]
		if !ok {
			r = &Fig10Row{Param: w.Schema.At(c.param).Name, Distinct: c.distinct, Acc: map[string]float64{}}
			rows[k] = r
		}
		r.Acc[c.learner] = c.res.Accuracy()
	}
	fig10 := map[int][]Fig10Row{}
	for _, m := range markets {
		var list []Fig10Row
		for k, r := range rows {
			if k.market == m {
				list = append(list, *r)
			}
		}
		sort.SliceStable(list, func(i, j int) bool {
			if list[i].Distinct != list[j].Distinct {
				return list[i].Distinct > list[j].Distinct
			}
			return list[i].Param < list[j].Param
		})
		fig10[m] = list
	}
	return results, fig10, nil
}

// LocalVsGlobal compares collaborative filtering with global voting to the
// 1-hop local learner over the given markets (Sec 4.3.2). Mismatches of
// the local learner are forwarded to onMismatch for Fig 12 labeling.
func LocalVsGlobal(w *netsim.World, markets []int, cv CVOptions, onMismatch func(Mismatch)) (global, local Result, err error) {
	var mu sync.Mutex
	for _, m := range markets {
		market := m
		b := dataset.NewBuilder(w.Net, w.X2, dataset.MarketFilter(w.Net, market))
		err = forEachParam(cv.Workers, allParams(w), func(pi int) error {
			t := b.Labeled(w.Current, pi)
			g, err := CrossValidate(t, cf.New(), cv, nil)
			if err != nil {
				return err
			}
			var localMs []Mismatch
			collect := func(ms Mismatch) { localMs = append(localMs, ms) }
			l, err := CrossValidateLocal(t, cf.New(), w.Net, w.X2, cv, collect)
			if err != nil {
				return err
			}
			mu.Lock()
			global.Add(g)
			local.Add(l)
			if onMismatch != nil {
				for _, ms := range localMs {
					onMismatch(ms)
				}
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			return global, local, err
		}
	}
	return global, local, nil
}

// Fig11Row is one parameter's local-learner accuracy and variability per
// market (Figs 11a-11d).
type Fig11Row struct {
	Param       string
	ParamIndex  int
	PerMarket   []float64 // accuracy by market ID
	DistinctPer []int     // distinct values by market ID
}

// Fig11 evaluates the local learner on the topN highest-variability
// parameters across every market.
func Fig11(w *netsim.World, topN int, cv CVOptions) ([]Fig11Row, error) {
	variability := Fig2(w)
	if topN > len(variability) {
		topN = len(variability)
	}
	builders := marketBuilders(w)
	var out []Fig11Row
	for _, v := range variability[:topN] {
		pi := w.Schema.IndexOf(v.Param)
		row := Fig11Row{
			Param:       v.Param,
			ParamIndex:  pi,
			PerMarket:   make([]float64, len(w.Net.Markets)),
			DistinctPer: make([]int, len(w.Net.Markets)),
		}
		var mu sync.Mutex
		markets := make([]int, len(w.Net.Markets))
		for i := range markets {
			markets[i] = i
		}
		err := forEachParam(cv.Workers, markets, func(m int) error {
			t := builders[m].Labeled(w.Current, pi)
			res, err := CrossValidateLocal(t, cf.New(), w.Net, w.X2, cv, nil)
			if err != nil {
				return err
			}
			mu.Lock()
			row.PerMarket[m] = res.Accuracy()
			row.DistinctPer[m] = t.LabelDict.Len()
			mu.Unlock()
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// MismatchLabels are the Fig 12 slices: engineer labeling of local-learner
// mismatches, reproduced here by the generator's ground-truth oracle.
type MismatchLabels struct {
	// UpdateLearner: the current value is intentional but unexplainable
	// from the visible attributes (hidden terrain, roll-out in progress).
	UpdateLearner int
	// GoodRecommendation: the current value is a stale trial leftover and
	// the recommendation equals the engineer-intended optimum.
	GoodRecommendation int
	// Inconclusive: everything else — the engineers would need a trial to
	// judge (67% in the paper).
	Inconclusive int
	Total        int
}

// LabelMismatches applies the oracle labeling to a set of mismatches.
func LabelMismatches(w *netsim.World, ms []Mismatch) MismatchLabels {
	var out MismatchLabels
	for _, m := range ms {
		out.Total++
		spec := w.Schema.At(m.Param)
		var cause netsim.Cause
		var optimal string
		if m.Site.To < 0 {
			cause = w.CauseOf(m.Site.From, m.Param)
			optimal = spec.Format(w.Optimal.Get(m.Site.From, m.Param))
		} else {
			cause = w.CauseOfPair(m.Site.From, m.Site.To, m.Param)
			if v, ok := w.Optimal.GetPair(m.Site.From, m.Site.To, m.Param); ok {
				optimal = spec.Format(v)
			}
		}
		switch {
		case cause == netsim.CauseStaleTrial && m.Predicted == optimal:
			out.GoodRecommendation++
		case cause == netsim.CauseHiddenTerrain || cause == netsim.CauseRecentRollout:
			out.UpdateLearner++
		default:
			out.Inconclusive++
		}
	}
	return out
}

// Fig12 runs the local learner across all markets and labels its
// mismatches with the oracle.
func Fig12(w *netsim.World, cv CVOptions) (MismatchLabels, Result, error) {
	markets := make([]int, len(w.Net.Markets))
	for i := range markets {
		markets[i] = i
	}
	var (
		mu sync.Mutex
		ms []Mismatch
	)
	_, local, err := LocalVsGlobal(w, markets, cv, func(m Mismatch) {
		mu.Lock()
		ms = append(ms, m)
		mu.Unlock()
	})
	if err != nil {
		return MismatchLabels{}, Result{}, err
	}
	return LabelMismatches(w, ms), local, nil
}
