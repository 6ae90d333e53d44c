// Package learn defines the common interface of Auric's dependency-model
// learners (Sec 3.2) and a registry of the five learners evaluated in the
// paper: decision tree, random forest, k-nearest neighbors, deep neural
// network, and collaborative filtering with chi-square tests of
// independence.
package learn

import (
	"fmt"
	"sort"

	"auric/internal/dataset"
	"auric/internal/lte"
)

// Prediction is a recommended configuration value with supporting context.
type Prediction struct {
	// Label is the canonical value label (paramspec.Param.Format output).
	// Empty means the learner abstained (no usable evidence).
	Label string
	// Confidence is the learner's support for the label in [0, 1]
	// (vote share, leaf purity, ensemble agreement, or softmax mass).
	Confidence float64
	// Explanation is a short human-readable account of why, in the spirit
	// of the decision-tree explanations the paper's engineers valued
	// (Sec 3.2, Fig 8).
	Explanation string
	// Diag carries machine-readable evidence diagnostics for the tracing
	// and audit layers. Learners without relaxation semantics leave it
	// zero; CF fills it on every prediction.
	Diag Diag
}

// Diag describes the evidence behind one prediction in machine-readable
// form — the per-recommendation fields the span tracer annotates and the
// audit log persists. It deliberately holds no slices, so Prediction
// values stay comparable with == (the equivalence tests rely on that).
type Diag struct {
	// Level is the relaxation-ladder level the vote settled at: 0 means
	// the full dependent set matched, k means the k weakest dependent
	// attributes were relaxed away. -1 marks the no-evidence fallback.
	Level int
	// Candidates is the number of matching carriers that voted.
	Candidates int
	// VoteShare is the winning label's share of the vote (before the
	// single-witness discount applied to Confidence).
	VoteShare float64
	// ExactIndex reports that the candidate pool came from the exact
	// full-dependent-set index (always true at Level 0, never above).
	ExactIndex bool
	// PostingLists is the number of per-column posting lists intersected
	// to build the pool (0 for exact-index hits and the empty set).
	PostingLists int
	// Scoped reports that the vote was restricted to the X2 neighborhood.
	Scoped bool
	// Dropped names the dependent attributes relaxed away, weakest first,
	// comma-joined ("" at Level 0).
	Dropped string
}

// Model is a fitted per-parameter dependency model. Fitted models must be
// read-only: Predict (and the codes variant) may not mutate
// model state, so one model can serve concurrent predictions — the
// engine's parallel recommendation path calls Predict on the same model
// from multiple goroutines.
type Model interface {
	// Predict recommends a value label for one attribute row.
	Predict(row []string) Prediction
}

// LabelModel is implemented by models that can answer "which label" without
// assembling the rest of the Prediction — in particular without formatting
// the human-readable explanation. Evaluation loops that only score accuracy
// use it as the allocation-free fast path; PredictLabel must return exactly
// the Label that Predict would.
type LabelModel interface {
	Model
	// PredictLabel returns Predict(row).Label without building the
	// explanation.
	PredictLabel(row []string) string
}

// Scope is a precomputed voting-population restriction built by a
// SiteScoper: an immutable handle over the sorted training-row list of an
// allowed site set. A Scope is bound to the model that built it and is
// safe to reuse across any number of concurrent predictions on that model.
type Scope interface {
	// NumRows reports how many training rows the scope admits.
	NumRows() int
}

// CodesModel is implemented by models that accept pre-encoded query rows,
// optionally restricted to a Scope. Batch callers encode each attribute
// string through the column dictionaries once and reuse the codes across
// every model sharing the same columnar base — the per-batch amortization
// of Engine.RecommendBatch.
type CodesModel interface {
	Model
	// SharesEncoding reports whether o decodes attribute codes identically
	// to this model (both fitted over the same columnar base).
	SharesEncoding(o Model) bool
	// EncodeRow translates a query row into the model's code space, one
	// code per column (-1 for values never seen in training).
	EncodeRow(row []string) []int32
	// AppendEncodeRow appends EncodeRow(row) to dst and returns the
	// extended slice, for callers that batch encodings into one arena.
	AppendEncodeRow(dst []int32, row []string) []int32
	// PredictCodes predicts row given its precomputed encoding. codes must
	// come from EncodeRow of a model sharing this model's encoding; row
	// supplies the string values for explanations. sc is nil for a
	// network-wide vote, or a Scope from this model's ScopeFrom.
	PredictCodes(codes []int32, row []string, sc Scope) Prediction
	// EncodesTable reports whether codes gathered from t's columns
	// (Table.Code) are valid PredictCodes input — true when t shares the
	// model's interned columnar base, so the table's stored codes equal
	// what EncodeRow would produce for the same rows. Evaluation drivers
	// use it to predict straight off the table without re-encoding
	// strings.
	EncodesTable(t *dataset.Table) bool
}

// SiteScoper is implemented by codes models that can restrict the evidence
// of a prediction to a set of training sites — the geographic scoping of
// the paper's local learner (Sec 3.3). The scope is precomputed as a
// sorted row list that the match machinery intersects like any other
// posting list.
type SiteScoper interface {
	CodesModel
	// ScopeFrom precomputes the scope admitting exactly the training rows
	// whose Site.From is one of ids (duplicates in ids are harmless).
	ScopeFrom(ids []lte.CarrierID) Scope
}

// Learner fits dependency models from learning tables.
type Learner interface {
	// Name identifies the learner ("collaborative-filtering", ...).
	Name() string
	// Fit learns a model for the table's parameter. Fit fails only on
	// unusable input (an empty table); a constant table yields a constant
	// model.
	Fit(t *dataset.Table) (Model, error)
}

// ErrEmptyTable is returned by Fit for tables with no rows.
var ErrEmptyTable = fmt.Errorf("learn: empty learning table")

// Factory builds a fresh learner with default hyperparameters.
type Factory func() Learner

var registry = map[string]Factory{}

// Register adds a learner factory under its name. It panics on duplicates
// and is intended to be called from init functions of learner packages.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("learn: duplicate learner " + name)
	}
	registry[name] = f
}

// New builds a registered learner by name.
func New(name string) (Learner, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("learn: unknown learner %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered learners in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MajorityLabel returns the most frequent label and its share; ties break
// to the lexicographically smallest label for determinism.
func MajorityLabel(labels []string) (string, float64) {
	if len(labels) == 0 {
		return "", 0
	}
	counts := make(map[string]int, 8)
	for _, l := range labels {
		counts[l]++
	}
	best, bestN := "", -1
	for l, n := range counts {
		if n > bestN || (n == bestN && l < best) {
			best, bestN = l, n
		}
	}
	return best, float64(bestN) / float64(len(labels))
}
