package mlp

import (
	"math"
	"testing"

	"auric/internal/matrix"
)

// TestNumericalGradient verifies the backpropagation implementation
// against central finite differences: for a tiny network and batch, the
// analytic gradient of every weight must match (f(w+h) - f(w-h)) / 2h.
func TestNumericalGradient(t *testing.T) {
	const (
		in, hidden, out = 4, 3, 2
		batch           = 5
		h               = 1e-5
		tol             = 1e-6
	)
	m := &Model{opts: Options{Hidden: []int{hidden}, L2: -1}.withDefaults()}
	m.opts.L2 = 0 // pure cross-entropy for the check
	m.initWeights(in, out)

	// Fixed input batch and targets.
	x := matrix.New(batch, in)
	y := make([]int, batch)
	for i := 0; i < batch; i++ {
		x.Row(i)[i%in] = 1 // one-hot-ish inputs
		y[i] = i % out
	}

	loss := func() float64 {
		// Forward pass replicated from adamStep's math.
		a := x
		for l, w := range m.weights {
			z := matrix.New(a.Rows, w.Cols)
			matrix.Mul(z, a, w)
			z.AddRowVector(m.biases[l])
			if l < len(m.weights)-1 {
				z.Apply(relu)
			}
			a = z
		}
		total := 0.0
		for i := 0; i < a.Rows; i++ {
			row := a.Row(i)
			maxv := row[0]
			for _, v := range row {
				if v > maxv {
					maxv = v
				}
			}
			sum := 0.0
			for _, v := range row {
				sum += math.Exp(v - maxv)
			}
			total -= (row[y[i]] - maxv) - math.Log(sum)
		}
		return total / batch
	}

	// Analytic gradients: run adamStep once with learning rate 0 so the
	// weights stay put, capturing gradients via finite Adam state (the
	// first Adam step's m equals (1-beta1)*g). Simpler: recompute
	// gradients with a bespoke backward pass mirroring adamStep.
	grads := m.analyticGradients(x, y)

	for l, w := range m.weights {
		for i := range w.Data {
			orig := w.Data[i]
			w.Data[i] = orig + h
			up := loss()
			w.Data[i] = orig - h
			down := loss()
			w.Data[i] = orig
			numeric := (up - down) / (2 * h)
			analytic := grads[l].Data[i]
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d weight %d: analytic %.8g vs numeric %.8g",
					l, i, analytic, numeric)
			}
		}
	}
}

// analyticGradients mirrors adamStep's backward pass but returns the raw
// weight gradients instead of applying an update. Kept in the test build
// only; drift from adamStep would be caught by the finite-difference
// comparison itself.
func (m *Model) analyticGradients(x *matrix.Dense, y []int) []*matrix.Dense {
	b := x.Rows
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
	out := acts[len(acts)-1]
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
			drow[j] = math.Exp(v - maxv)
			sum += drow[j]
		}
		for j := range drow {
			p := drow[j] / sum
			if j == y[i] {
				drow[j] = (p - 1) / float64(b)
			} else {
				drow[j] = p / float64(b)
			}
		}
	}
	grads := make([]*matrix.Dense, len(m.weights))
	for l := len(m.weights) - 1; l >= 0; l-- {
		w := m.weights[l]
		gw := matrix.New(w.Rows, w.Cols)
		matrix.MulAT(gw, acts[l], delta)
		grads[l] = gw
		if l > 0 {
			prev := matrix.New(delta.Rows, w.Rows)
			matrix.MulBT(prev, delta, w)
			hiddenAct := acts[l]
			for i := range prev.Data {
				if hiddenAct.Data[i] <= 0 {
					prev.Data[i] = 0
				}
			}
			delta = prev
		}
	}
	return grads
}
