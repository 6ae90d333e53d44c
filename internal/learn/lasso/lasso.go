// Package lasso implements the linear-regression dependency learner of
// Sec 3.2, Eq. (1): minimize ||Y - β·X||₂ + λ||β||₁ over one-hot encoded
// carrier attributes. The L1 penalty drives irrelevant attributes'
// coefficients to exactly zero — the paper's motivation for
// regularization ("configuration parameter values should be associated
// with a small number of carrier attributes, and thus the regularization
// function plays a key role in discovering sparse dependency models").
//
// The paper ultimately evaluates five other learners in Table 4; lasso is
// provided as the sixth, for the Sec 3.2 design-space ablation. Fitting
// uses cyclic coordinate descent with soft thresholding; predictions are
// snapped to the nearest observed parameter value, since recommendations
// must land on the configuration grid.
package lasso

import (
	"fmt"
	"math"
	"sort"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/onehot"
)

func init() { learn.Register("lasso-regression", func() learn.Learner { return New() }) }

// Options are the lasso hyperparameters.
type Options struct {
	// Lambda is the L1 penalty weight; zero means 0.1. The paper bounds
	// λ ∈ [0, 1] over standardized features.
	Lambda float64
	// Iterations bounds coordinate-descent sweeps; zero means 200.
	Iterations int
	// Tol stops when the largest coefficient update in a sweep falls
	// below it; zero means 1e-6.
	Tol float64
}

// Learner fits lasso models.
type Learner struct {
	Opts Options
}

// New returns a lasso learner with λ=0.1.
func New() *Learner { return &Learner{} }

// Name implements learn.Learner.
func (l *Learner) Name() string { return "lasso-regression" }

func (o Options) withDefaults() Options {
	if o.Lambda == 0 {
		o.Lambda = 0.1
	}
	if o.Iterations <= 0 {
		o.Iterations = 200
	}
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	return o
}

// Fit implements learn.Learner.
func (l *Learner) Fit(t *dataset.Table) (learn.Model, error) {
	if t.Len() == 0 {
		return nil, learn.ErrEmptyTable
	}
	opts := l.Opts.withDefaults()
	enc := onehot.FitTable(t)
	n, d := t.Len(), enc.Width()

	// Dense design matrix (one-hot) and centered/scaled target.
	x := enc.TransformTable(t)
	yMean, yStd := meanStd(t.Values)
	if yStd == 0 {
		yStd = 1
	}
	y := make([]float64, n)
	for i, v := range t.Values {
		y[i] = (v - yMean) / yStd
	}

	// Per-feature scale: columns are binary, so the squared norm is just
	// the activation count.
	norm2 := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x[i*d : (i+1)*d]
		for j, v := range row {
			if v != 0 {
				norm2[j] += v * v
			}
		}
	}

	beta := make([]float64, d)
	resid := make([]float64, n)
	copy(resid, y)
	lambdaN := opts.Lambda * float64(n) / 2

	for it := 0; it < opts.Iterations; it++ {
		maxDelta := 0.0
		for j := 0; j < d; j++ {
			if norm2[j] == 0 {
				continue
			}
			// rho = x_j · (resid + beta_j * x_j)
			rho := 0.0
			for i := 0; i < n; i++ {
				if v := x[i*d+j]; v != 0 {
					rho += v * (resid[i] + beta[j]*v)
				}
			}
			newBeta := softThreshold(rho, lambdaN) / norm2[j]
			if delta := newBeta - beta[j]; delta != 0 {
				for i := 0; i < n; i++ {
					if v := x[i*d+j]; v != 0 {
						resid[i] -= delta * v
					}
				}
				if a := math.Abs(delta); a > maxDelta {
					maxDelta = a
				}
				beta[j] = newBeta
			}
		}
		if maxDelta < opts.Tol {
			break
		}
	}

	// Observed value vocabulary for grid snapping.
	seen := map[float64]string{}
	var values []float64
	for i, v := range t.Values {
		if _, ok := seen[v]; !ok {
			seen[v] = t.Label(i)
			values = append(values, v)
		}
	}
	sort.Float64s(values)

	return &Model{
		enc: enc, beta: beta, yMean: yMean, yStd: yStd,
		values: values, labelOf: seen, colNames: t.ColNames,
	}, nil
}

func softThreshold(x, l float64) float64 {
	switch {
	case x > l:
		return x - l
	case x < -l:
		return x + l
	default:
		return 0
	}
}

func meanStd(xs []float64) (mean, std float64) {
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	for _, v := range xs {
		std += (v - mean) * (v - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// Model is a fitted lasso model.
type Model struct {
	enc      *onehot.Encoder
	beta     []float64
	yMean    float64
	yStd     float64
	values   []float64
	labelOf  map[float64]string
	colNames []string
}

// NonZero reports the number of non-zero coefficients (model sparsity).
func (m *Model) NonZero() int {
	n := 0
	for _, b := range m.beta {
		if b != 0 {
			n++
		}
	}
	return n
}

// Predict implements learn.Model: the linear prediction is snapped to the
// nearest observed parameter value.
func (m *Model) Predict(row []string) learn.Prediction {
	xb := 0.0
	buf := make([]float64, m.enc.Width())
	m.enc.TransformTo(buf, row)
	for j, v := range buf {
		if v != 0 {
			xb += v * m.beta[j]
		}
	}
	raw := xb*m.yStd + m.yMean
	best := m.values[0]
	for _, v := range m.values[1:] {
		if math.Abs(v-raw) < math.Abs(best-raw) {
			best = v
		}
	}
	conf := 1 / (1 + math.Abs(best-raw)/(m.yStd+1e-12))
	return learn.Prediction{
		Label:      m.labelOf[best],
		Confidence: conf,
		Explanation: fmt.Sprintf(
			"lasso regression over %d active of %d one-hot features predicts %.4g, snapped to %s",
			m.NonZero(), len(m.beta), raw, m.labelOf[best]),
	}
}
