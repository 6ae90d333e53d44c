// Package mlp implements the deep-neural-network learner of Sec 4.2: a
// fully connected multi-layer perceptron with 7 hidden layers of sizes
// 100, 100, 100, 50, 50, 50, 10, ReLU activations, a softmax output over
// the parameter's observed value labels, L2 penalty 1e-5, and the Adam
// optimizer. Inputs are the one-hot encoded carrier attributes (Sec 3.1).
//
// The paper trains with scikit-learn's max_iter=10000; this implementation
// uses mini-batch Adam with a configurable epoch budget and early stopping
// on training loss, which reaches the same plateau at a fraction of the
// cost on the synthetic workloads (see EXPERIMENTS.md).
package mlp

import (
	"fmt"
	"math"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/matrix"
	"auric/internal/onehot"
	"auric/internal/rng"
)

func init() { learn.Register("deep-neural-network", func() learn.Learner { return New() }) }

// Options are the network hyperparameters.
type Options struct {
	// Hidden lists the hidden layer sizes; nil means the paper's
	// 100, 100, 100, 50, 50, 50, 10.
	Hidden []int
	// Epochs is the maximum number of passes over the training data;
	// zero means 40.
	Epochs int
	// Batch is the mini-batch size; zero means 32.
	Batch int
	// LR is the Adam learning rate; zero means 1e-3.
	LR float64
	// L2 is the L2 penalty; zero means the paper's 1e-5. Set negative to
	// disable entirely.
	L2 float64
	// Tol stops training when the epoch loss improves by less than Tol
	// for 3 consecutive epochs; zero means 1e-4.
	Tol float64
	// Seed drives weight initialization and batch shuffling (the paper
	// fixes random_state=1).
	Seed uint64
}

// Learner fits MLP classifiers.
type Learner struct {
	Opts Options
}

// New returns an MLP learner with the paper's architecture.
func New() *Learner { return &Learner{} }

// Name implements learn.Learner.
func (l *Learner) Name() string { return "deep-neural-network" }

func (o Options) withDefaults() Options {
	if o.Hidden == nil {
		o.Hidden = []int{100, 100, 100, 50, 50, 50, 10}
	}
	if o.Epochs <= 0 {
		o.Epochs = 40
	}
	if o.Batch <= 0 {
		o.Batch = 32
	}
	if o.LR == 0 {
		o.LR = 1e-3
	}
	if o.L2 == 0 {
		o.L2 = 1e-5
	} else if o.L2 < 0 {
		o.L2 = 0
	}
	if o.Tol == 0 {
		o.Tol = 1e-4
	}
	if o.Seed == 0 {
		o.Seed = 1
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
	classes := t.LabelDict.Strings()
	m := &Model{enc: enc, classes: classes, opts: opts}
	if len(classes) == 1 {
		m.constant = true
		return m, nil
	}
	m.initWeights(enc.Width(), len(classes))
	m.train(t, t.LabelCodes)
	return m, nil
}

// Model is a fitted MLP.
type Model struct {
	enc      *onehot.Encoder
	classes  []string
	opts     Options
	constant bool
	// weights[l] maps layer l activations (rows) to layer l+1; biases[l]
	// is the layer l+1 bias.
	weights []*matrix.Dense
	biases  [][]float64
	// epochs actually trained (for tests and reports).
	TrainedEpochs int
	FinalLoss     float64
}

func (m *Model) layerSizes(in, out int) []int {
	sizes := make([]int, 0, len(m.opts.Hidden)+2)
	sizes = append(sizes, in)
	sizes = append(sizes, m.opts.Hidden...)
	return append(sizes, out)
}

func (m *Model) initWeights(in, out int) {
	r := rng.New(m.opts.Seed)
	sizes := m.layerSizes(in, out)
	for l := 0; l+1 < len(sizes); l++ {
		w := matrix.New(sizes[l], sizes[l+1])
		scale := math.Sqrt(2 / float64(sizes[l])) // He init for ReLU
		for i := range w.Data {
			w.Data[i] = r.NormFloat64() * scale
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, make([]float64, sizes[l+1]))
	}
}

// train runs mini-batch Adam over the encoded table.
func (m *Model) train(t *dataset.Table, y []int32) {
	opts := m.opts
	n := t.Len()
	r := rng.New(opts.Seed ^ 0xadab)

	// Pre-encode all rows once.
	width := m.enc.Width()
	encoded := m.enc.TransformTable(t)

	// Adam state mirrors weights and biases.
	mw := make([]*matrix.Dense, len(m.weights))
	vw := make([]*matrix.Dense, len(m.weights))
	mb := make([][]float64, len(m.biases))
	vb := make([][]float64, len(m.biases))
	for l := range m.weights {
		mw[l] = matrix.New(m.weights[l].Rows, m.weights[l].Cols)
		vw[l] = matrix.New(m.weights[l].Rows, m.weights[l].Cols)
		mb[l] = make([]float64, len(m.biases[l]))
		vb[l] = make([]float64, len(m.biases[l]))
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	prevLoss := math.Inf(1)
	stall := 0
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		for start := 0; start < n; start += opts.Batch {
			end := start + opts.Batch
			if end > n {
				end = n
			}
			batch := order[start:end]
			loss := m.adamStep(encoded, width, y, batch, mw, vw, mb, vb, &step, beta1, beta2, eps)
			epochLoss += loss * float64(len(batch))
		}
		epochLoss /= float64(n)
		m.TrainedEpochs = epoch + 1
		m.FinalLoss = epochLoss
		if prevLoss-epochLoss < opts.Tol {
			stall++
			if stall >= 3 {
				break
			}
		} else {
			stall = 0
		}
		prevLoss = epochLoss
	}
}

// adamStep performs one mini-batch forward/backward pass and Adam update,
// returning the mean cross-entropy loss of the batch.
func (m *Model) adamStep(encoded []float64, width int, y []int32, batch []int,
	mw, vw []*matrix.Dense, mb, vb [][]float64, step *int, beta1, beta2, eps float64) float64 {

	b := len(batch)
	x := matrix.New(b, width)
	for i, idx := range batch {
		copy(x.Row(i), encoded[idx*width:(idx+1)*width])
	}

	// Forward pass, keeping activations for backprop.
	acts := []*matrix.Dense{x}
	a := x
	for l, w := range m.weights {
		z := matrix.New(a.Rows, w.Cols)
		matrix.Mul(z, a, w)
		z.AddRowVector(m.biases[l])
		if l < len(m.weights)-1 {
			z.Apply(relu)
		}
		acts = append(acts, z)
		a = z
	}

	// Softmax + cross-entropy on the output layer.
	out := acts[len(acts)-1]
	loss := 0.0
	delta := matrix.New(out.Rows, out.Cols)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		drow := delta.Row(i)
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxv)
			drow[j] = e
			sum += e
		}
		target := int(y[batch[i]])
		for j := range drow {
			p := drow[j] / sum
			if j == target {
				loss -= math.Log(math.Max(p, 1e-12))
				drow[j] = (p - 1) / float64(b)
			} else {
				drow[j] = p / float64(b)
			}
		}
	}
	loss /= float64(b)

	// Backward pass with immediate Adam updates.
	*step++
	for l := len(m.weights) - 1; l >= 0; l-- {
		w := m.weights[l]
		gw := matrix.New(w.Rows, w.Cols)
		matrix.MulAT(gw, acts[l], delta)
		if m.opts.L2 > 0 {
			gw.Axpy(m.opts.L2, w)
		}
		gb := delta.ColSums()

		var prevDelta *matrix.Dense
		if l > 0 {
			prevDelta = matrix.New(delta.Rows, w.Rows)
			matrix.MulBT(prevDelta, delta, w)
			// ReLU derivative gate on the pre-activation (== activation
			// sign since ReLU output is positive iff pre-activation is).
			hidden := acts[l]
			for i := range prevDelta.Data {
				if hidden.Data[i] <= 0 {
					prevDelta.Data[i] = 0
				}
			}
		}

		adamUpdate(w.Data, gw.Data, mw[l].Data, vw[l].Data, *step, m.opts.LR, beta1, beta2, eps)
		adamUpdate(m.biases[l], gb, mb[l], vb[l], *step, m.opts.LR, beta1, beta2, eps)
		delta = prevDelta
	}
	return loss
}

func adamUpdate(w, g, mm, vv []float64, step int, lr, beta1, beta2, eps float64) {
	c1 := 1 - math.Pow(beta1, float64(step))
	c2 := 1 - math.Pow(beta2, float64(step))
	for i := range w {
		mm[i] = beta1*mm[i] + (1-beta1)*g[i]
		vv[i] = beta2*vv[i] + (1-beta2)*g[i]*g[i]
		w[i] -= lr * (mm[i] / c1) / (math.Sqrt(vv[i]/c2) + eps)
	}
}

func relu(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// Predict implements learn.Model: the argmax class of the softmax output.
func (m *Model) Predict(row []string) learn.Prediction {
	if m.constant {
		return learn.Prediction{
			Label:       m.classes[0],
			Confidence:  1,
			Explanation: "all training samples share one value",
		}
	}
	x := matrix.New(1, m.enc.Width())
	m.enc.TransformTo(x.Row(0), row)
	a := x
	for l, w := range m.weights {
		z := matrix.New(1, w.Cols)
		matrix.Mul(z, a, w)
		z.AddRowVector(m.biases[l])
		if l < len(m.weights)-1 {
			z.Apply(relu)
		}
		a = z
	}
	out := a.Row(0)
	maxv := out[0]
	for _, v := range out {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	exps := make([]float64, len(out))
	for j, v := range out {
		exps[j] = math.Exp(v - maxv)
		sum += exps[j]
	}
	best, bestP := 0, -1.0
	for j, e := range exps {
		if p := e / sum; p > bestP {
			best, bestP = j, p
		}
	}
	return learn.Prediction{
		Label:      m.classes[best],
		Confidence: bestP,
		Explanation: fmt.Sprintf("softmax assigns %.0f%% mass to %s across %d classes",
			bestP*100, m.classes[best], len(m.classes)),
	}
}
