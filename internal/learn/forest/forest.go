// Package forest implements the random-forest learner of Sec 4.2: 100
// trees grown to purity on bootstrap samples with Gini splits, predictions
// by majority vote across trees. Per-node feature subsampling (sqrt of the
// column count) decorrelates the trees, the standard ensemble control for
// over-fitting the paper cites.
//
// Fitting encodes the table once (tree.NewFrame) and grows every bootstrap
// tree over the shared frame. Bootstrap samples and per-tree RNG seeds are
// drawn sequentially first — the exact draw order of the original serial
// loop — and only the tree builds fan out over a bounded worker pool, so
// the fitted ensemble is bit-identical at any Workers setting. Prediction
// encodes the query row once against the frame and votes label codes into
// a dense count array, no per-call vote-string slice.
package forest

import (
	"fmt"
	"sync"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/learn/tree"
	"auric/internal/pool"
	"auric/internal/rng"
)

func init() { learn.Register("random-forest", func() learn.Learner { return New() }) }

// Options are the forest hyperparameters.
type Options struct {
	// Trees is the ensemble size; zero means 100 (the paper's setting).
	Trees int
	// ColsPerSplit overrides the per-node feature sample with raw
	// attribute columns. Zero uses the scikit-learn-equivalent default:
	// ceil(sqrt(W)) one-hot (column, category) indicators per node, which
	// is how the paper's implementation sees one-hot encoded data.
	ColsPerSplit int
	// Workers bounds the goroutines growing trees concurrently; zero or
	// negative means one per CPU. The fitted ensemble is identical at any
	// setting — Workers only changes wall-clock time.
	Workers int
	// Seed drives bootstrap and feature sampling.
	Seed uint64
}

// Learner fits random forests.
type Learner struct {
	Opts Options
}

// New returns a forest learner with the paper's defaults.
func New() *Learner { return &Learner{} }

// Name implements learn.Learner.
func (l *Learner) Name() string { return "random-forest" }

// Fit implements learn.Learner.
func (l *Learner) Fit(t *dataset.Table) (learn.Model, error) {
	if t.Len() == 0 {
		return nil, learn.ErrEmptyTable
	}
	opts := l.Opts
	if opts.Trees <= 0 {
		opts.Trees = 100
	}
	// Draw every tree's bootstrap sample and feature-sampling seed up
	// front, in the serial order the original implementation drew them:
	// n Intn draws then one Uint64 per tree. The parallel phase below
	// consumes no randomness, so ensembles are reproducible bit-for-bit
	// regardless of Workers.
	r := rng.New(opts.Seed ^ 0xf0fe57)
	n := t.Len()
	arena := make([]int, n*opts.Trees)
	boots := make([][]int, opts.Trees)
	seeds := make([]uint64, opts.Trees)
	for k := range boots {
		boot := arena[k*n : (k+1)*n]
		for i := range boot {
			boot[i] = r.Intn(n)
		}
		boots[k] = boot
		seeds[k] = r.Uint64()
	}
	f := tree.NewFrame(t)
	trees := make([]*tree.Tree, opts.Trees)
	err := pool.ForEachN(opts.Workers, opts.Trees, func(k int) error {
		tl := &tree.Learner{Opts: tree.Options{
			ColsPerSplit:        opts.ColsPerSplit,
			OneHotFeatureSample: opts.ColsPerSplit <= 0,
			Seed:                seeds[k],
		}}
		var e error
		trees[k], e = tl.FitFrame(f, boots[k])
		return e
	})
	if err != nil {
		return nil, err
	}
	return &Model{trees: trees, frame: f, labels: f.Labels()}, nil
}

// Model is a fitted random forest.
type Model struct {
	trees  []*tree.Tree
	frame  *tree.Frame
	labels []string
}

// voteScratch is the pooled per-prediction working storage: the encoded
// query row and the dense per-label vote counts.
type voteScratch struct {
	codes  []int32
	counts []int32
}

var votePool = sync.Pool{New: func() any { return new(voteScratch) }}

// vote encodes row once against the fitting frame, walks every tree on the
// codes, and returns the majority label and its ensemble share. Ties break
// to the lexicographically smallest label, exactly as learn.MajorityLabel
// breaks them over a vote-string slice.
func (m *Model) vote(row []string) (label string, share float64) {
	sc := votePool.Get().(*voteScratch)
	sc.codes = m.frame.EncodeRowInto(sc.codes, row)
	if cap(sc.counts) < len(m.labels) {
		sc.counts = make([]int32, len(m.labels))
	}
	counts := sc.counts[:len(m.labels)]
	clear(counts)
	for _, tr := range m.trees {
		counts[tr.PredictCodes(sc.codes)]++
	}
	best, bestN := 0, int32(-1)
	for l, c := range counts {
		if c > bestN || (c == bestN && m.labels[l] < m.labels[best]) {
			best, bestN = l, c
		}
	}
	label, share = m.labels[best], float64(bestN)/float64(len(m.trees))
	votePool.Put(sc)
	return label, share
}

// Predict implements learn.Model: majority vote across trees, confidence
// is the agreeing share of the ensemble.
func (m *Model) Predict(row []string) learn.Prediction {
	label, share := m.vote(row)
	return learn.Prediction{
		Label:      label,
		Confidence: share,
		Explanation: fmt.Sprintf("%d of %d trees vote %s",
			int(share*float64(len(m.trees))+0.5), len(m.trees), label),
	}
}

// PredictLabel implements learn.LabelModel: the majority label without the
// explanation formatting.
func (m *Model) PredictLabel(row []string) string {
	label, _ := m.vote(row)
	return label
}
