// Package knn implements the k-nearest-neighbors learner of Sec 4.2: k=5,
// Euclidean distance, equal weighting across neighbors.
//
// Over one-hot encoded categorical rows, the squared Euclidean distance
// between two samples is exactly twice the number of attribute columns on
// which they differ (each differing column contributes 1² + 1²), so
// neighbor ranking by Euclidean distance is identical to ranking by
// column-wise Hamming distance — which is what this implementation
// computes over the table's interned column codes, avoiding the dense
// encoding entirely. This also exhibits the
// weakness the paper points out (Sec 3.2): attributes irrelevant to the
// parameter still contribute to the distance and can push truly similar
// carriers apart.
package knn

import (
	"fmt"
	"sort"

	"auric/internal/dataset"
	"auric/internal/learn"
)

func init() { learn.Register("k-nearest-neighbors", func() learn.Learner { return New() }) }

// Options are the kNN hyperparameters.
type Options struct {
	// K is the neighbor count; zero means 5 (the paper's setting).
	K int
}

// Learner fits (memorizes) kNN models.
type Learner struct {
	Opts Options
}

// New returns a kNN learner with the paper's defaults.
func New() *Learner { return &Learner{} }

// Name implements learn.Learner.
func (l *Learner) Name() string { return "k-nearest-neighbors" }

// Fit implements learn.Learner.
func (l *Learner) Fit(t *dataset.Table) (learn.Model, error) {
	if t.Len() == 0 {
		return nil, learn.ErrEmptyTable
	}
	k := l.Opts.K
	if k <= 0 {
		k = 5
	}
	return &Model{t: t, k: k}, nil
}

// Model is a fitted kNN model (the training table itself).
type Model struct {
	t *dataset.Table
	k int
}

// Predict implements learn.Model: majority label among the k nearest
// training rows. Distance ties are broken by training-row order so that
// predictions are deterministic.
func (m *Model) Predict(row []string) learn.Prediction {
	type cand struct {
		idx, dist int
	}
	cands := make([]cand, m.t.Len())
	for i := range cands {
		cands[i].idx = i
	}
	// Column-major over interned codes: an unseen query value encodes to
	// -1, which differs from every stored code — exactly like a failed
	// string comparison.
	for c := 0; c < m.t.NumCols(); c++ {
		q := m.t.Dict(c).Code(row[c])
		for i, code := range m.t.ColumnCodes(c) {
			if code != q {
				cands[i].dist++
			}
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
	k := m.k
	if k > len(cands) {
		k = len(cands)
	}
	labels := make([]string, k)
	for i := 0; i < k; i++ {
		labels[i] = m.t.Label(cands[i].idx)
	}
	label, share := learn.MajorityLabel(labels)
	return learn.Prediction{
		Label:      label,
		Confidence: share,
		Explanation: fmt.Sprintf("%d of %d nearest neighbors (closest at Hamming distance %d) hold %s",
			int(share*float64(k)+0.5), k, cands[0].dist, label),
	}
}
