// Package eval implements the paper's evaluation methodology (Sec 4.2):
// every carrier is treated in turn as a newly added carrier, the remaining
// carriers train the dependency models, and a recommendation is scored
// against the carrier's current configuration. Cross-validation folds are
// grouped by carrier so a carrier's own pair-wise relations never vote for
// it.
package eval

import (
	"auric/internal/dataset"
	"auric/internal/geo"
	"auric/internal/learn"
	"auric/internal/lte"
	"auric/internal/netsim"
	"auric/internal/pool"
)

// CVOptions control cross-validated accuracy measurement.
type CVOptions struct {
	// Folds is the fold count; zero means 3.
	Folds int
	// Seed drives fold assignment and sampling.
	Seed uint64
	// MaxSamples caps the table size before CV (0 = no cap); sampling is
	// deterministic by Seed.
	MaxSamples int
	// Hops is the geographic scope radius for local evaluation; zero
	// means 1.
	Hops int
	// Workers bounds the per-parameter worker pool of the experiment
	// drivers; zero or negative means runtime.NumCPU(). Timing only —
	// results are identical at any setting.
	Workers int
}

func (o CVOptions) withDefaults() CVOptions {
	if o.Folds <= 0 {
		o.Folds = 3
	}
	if o.Hops <= 0 {
		o.Hops = 1
	}
	return o
}

// Result is an accuracy tally.
type Result struct {
	Correct, Total int
}

// Accuracy returns the fraction correct (0 for an empty result).
func (r Result) Accuracy() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Total)
}

// Add accumulates another result.
func (r *Result) Add(o Result) {
	r.Correct += o.Correct
	r.Total += o.Total
}

// Mismatch records one recommendation that disagreed with the current
// network value.
type Mismatch struct {
	Param     int // schema index
	Site      dataset.Site
	Predicted string // recommended label
	Current   string // label currently configured
}

// CrossValidate measures the accuracy of learner l on table t via grouped
// k-fold cross-validation. When onMismatch is non-nil it receives every
// disagreement.
func CrossValidate(t *dataset.Table, l learn.Learner, opts CVOptions, onMismatch func(Mismatch)) (Result, error) {
	return crossValidate(t, l, nil, nil, opts, onMismatch)
}

// CrossValidateLocal measures the accuracy of a geographically scoped
// learner: models fit exactly as in CrossValidate, but each prediction
// votes only among training carriers within opts.Hops X2 hops of the test
// carrier (Sec 3.3/4.2). Models that are not a learn.SiteScoper vote
// network-wide, exactly as in CrossValidate.
func CrossValidateLocal(t *dataset.Table, l learn.Learner, net *lte.Network, x2 *geo.Graph,
	opts CVOptions, onMismatch func(Mismatch)) (Result, error) {
	return crossValidate(t, l, net, x2, opts, onMismatch)
}

// crossValidate is CrossValidate, scoped to the X2 neighborhood when x2
// is non-nil. Every test row makes one predict call.
func crossValidate(t *dataset.Table, l learn.Learner, net *lte.Network, x2 *geo.Graph,
	opts CVOptions, onMismatch func(Mismatch)) (Result, error) {

	opts = opts.withDefaults()
	if opts.MaxSamples > 0 {
		t = t.Sample(opts.MaxSamples, opts.Seed)
	}
	var res Result
	folds, ok := safeFolds(t, opts)
	if !ok {
		return res, nil // too few carriers to validate
	}
	// A neighborhood scope (self excluded) names carriers, not rows, so
	// one per test carrier serves every fold model; build it lazily.
	hoodCache := make(map[lte.CarrierID]*learn.Scope)
	hood := func(c lte.CarrierID) *learn.Scope {
		h, ok := hoodCache[c]
		if !ok {
			h = learn.NewScope(x2.CarriersWithinHops(net, c, opts.Hops))
			hoodCache[c] = h
		}
		return h
	}
	// Per-prediction scratch: learners consume the query row within the
	// predict call, so one row buffer and one code buffer serve every
	// test row.
	rowBuf := make([]string, t.NumCols())
	codeBuf := make([]int32, t.NumCols())
	for f := range folds {
		train, test := dataset.TrainTest(folds, f)
		m, err := l.Fit(t.Subset(train))
		if err != nil {
			return res, err
		}
		ss, scoped := m.(learn.SiteScoper)
		scoped = scoped && x2 != nil
		// Scoring consumes only the label, so unscoped models exposing the
		// explanation-free fast path skip the Prediction assembly.
		lm, okLabel := m.(learn.LabelModel)
		for _, i := range test {
			row := rowBuf
			for c := range row {
				row[c] = t.At(i, c)
			}
			var label string
			switch {
			case scoped:
				// A fold model trained on a Subset of t shares t's columnar
				// base, so the table's stored codes are already the model's
				// encoding — no per-prediction string re-encode.
				for c := range codeBuf {
					codeBuf[c] = t.Code(i, c)
				}
				label = ss.PredictCodes(codeBuf, row, hood(t.Sites[i].From)).Label
			case okLabel:
				label = lm.PredictLabel(row)
			default:
				label = m.Predict(row).Label
			}
			res.Total++
			if cur := t.Label(i); label == cur {
				res.Correct++
			} else if onMismatch != nil {
				onMismatch(Mismatch{Param: t.Param, Site: t.Sites[i], Predicted: label, Current: cur})
			}
		}
	}
	return res, nil
}

func safeFolds(t *dataset.Table, opts CVOptions) ([][]int, bool) {
	distinct := make(map[lte.CarrierID]struct{})
	for _, s := range t.Sites {
		distinct[s.From] = struct{}{}
	}
	if len(distinct) < opts.Folds {
		return nil, false
	}
	return t.GroupedFolds(opts.Folds, opts.Seed), true
}

// forEachParam runs fn over the given schema parameter indices on a worker
// pool of the given size and returns the first error.
func forEachParam(workers int, params []int, fn func(pi int) error) error {
	return pool.ForEachN(workers, len(params), func(i int) error { return fn(params[i]) })
}

// allParams lists every schema index of the world.
func allParams(w *netsim.World) []int {
	out := make([]int, w.Schema.Len())
	for i := range out {
		out[i] = i
	}
	return out
}
