// Package learn defines the common interface of Auric's dependency-model
// learners (Sec 3.2) and a registry of the five learners evaluated in the
// paper: decision tree, random forest, k-nearest neighbors, deep neural
// network, and collaborative filtering with chi-square tests of
// independence. Every learner is a Model (Predict on a string row), which
// is all the Table 4 baselines need. Collaborative filtering alone also
// implements CodesModel and SiteScoper: one PredictCodes call over a
// pre-encoded row, optionally scoped to the X2 neighborhood (Sec 3.3).
package learn

import (
	"fmt"
	"slices"
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
// read-only: Predict (and PredictCodes) may not mutate model state, so one
// model can serve concurrent predictions — the engine's parallel
// recommendation path predicts on the same model from multiple goroutines.
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

// Scope restricts a vote to the training rows of a site set: the sorted,
// deduplicated From carriers it admits. It names carriers, not rows, so
// one Scope is valid for every model — whatever its table — and safe to
// share across any number of concurrent predictions. The nil *Scope is the
// network-wide vote.
type Scope struct {
	ids []lte.CarrierID
	// slots is an open-addressing set of ids with linear probing: a power
	// of two at least twice len(ids), -1 in an empty slot, so Admits costs
	// about one probe and the memory follows the number of ids rather
	// than their range.
	slots []lte.CarrierID
	shift uint
}

// NewScope builds the scope admitting exactly the training rows whose
// Site.From is one of ids (duplicates in ids are harmless; negative ids,
// which no carrier has, are dropped). ids is copied, not retained.
func NewScope(ids []lte.CarrierID) *Scope {
	s := slices.DeleteFunc(slices.Clone(ids), func(id lte.CarrierID) bool { return id < 0 })
	slices.Sort(s)
	s = slices.Compact(s)
	size, shift := 1, uint(32)
	for size < 2*len(s) {
		size, shift = size<<1, shift-1
	}
	sc := &Scope{ids: s, slots: make([]lte.CarrierID, size), shift: shift}
	for i := range sc.slots {
		sc.slots[i] = -1
	}
	mask := uint32(size - 1)
	for _, id := range s {
		i := sc.home(id)
		for sc.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		sc.slots[i] = id
	}
	return sc
}

// home is id's first probe slot: Fibonacci hashing keeps the top bits of
// a multiplicative hash, so runs of consecutive ids spread over the table.
func (s *Scope) home(id lte.CarrierID) uint32 {
	return uint32(uint64(uint32(id)*0x9e3779b9) >> s.shift)
}

// IDs returns the admitted carriers, ascending and distinct. The slice is
// shared; callers must not modify it.
func (s *Scope) IDs() []lte.CarrierID { return s.ids }

// Admits reports whether the scope admits the training rows of carrier id.
func (s *Scope) Admits(id lte.CarrierID) bool {
	if id < 0 {
		return false
	}
	mask := uint32(len(s.slots) - 1)
	for i := s.home(id); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case id:
			return true
		case -1:
			return false
		}
	}
}

// CodesModel is implemented by models that accept pre-encoded query rows,
// optionally restricted to a Scope. Callers encode each attribute string
// through the column dictionaries once and reuse the codes across every
// model fitted over the same columnar base.
type CodesModel interface {
	Model
	// EncodeRow translates a query row into the model's code space, one
	// code per column (-1 for values never seen in training).
	EncodeRow(row []string) []int32
	// PredictCodes predicts row given its precomputed encoding. codes must
	// come from EncodeRow of a model sharing this model's columnar base;
	// row supplies the string values for explanations. sc is nil for a
	// network-wide vote, or the site set the voters are restricted to.
	PredictCodes(codes []int32, row []string, sc *Scope) Prediction
}

// SiteScoper is implemented by codes models that can restrict the evidence
// of a prediction to a set of training sites — the geographic scoping of
// the paper's local learner (Sec 3.3). A scope is a site set, not a row
// list, so callers build one per query carrier and share it across every
// model; ScopeFrom is NewScope.
type SiteScoper interface {
	CodesModel
	// ScopeFrom builds the scope admitting exactly the training rows whose
	// Site.From is one of ids (duplicates in ids are harmless).
	ScopeFrom(ids []lte.CarrierID) *Scope
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
