// Package matrix implements the small dense linear-algebra substrate used
// by the deep-neural-network learner. It is deliberately minimal: row-major
// float64 matrices with the handful of fused operations backpropagation
// needs (products with optional transposes, elementwise maps, axpy).
package matrix

import "fmt"

// Dense is a row-major dense matrix. The zero value is an empty matrix;
// use New to allocate.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New allocates a Rows x Cols zero matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("matrix: negative dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Apply replaces every element x with f(x).
func (m *Dense) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// Axpy accumulates alpha*other into m elementwise.
func (m *Dense) Axpy(alpha float64, other *Dense) {
	mustSameShape(m, other)
	for i, v := range other.Data {
		m.Data[i] += alpha * v
	}
}

// Mul computes dst = a * b. dst must not alias a or b and must be
// a.Rows x b.Cols; it is zeroed first.
func Mul(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul inner dims %d vs %d", a.Cols, b.Rows))
	}
	mustShape(dst, a.Rows, b.Cols)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue // one-hot inputs are mostly zero; skip whole rows of b
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MulAT computes dst = aᵀ * b (a is used transposed). dst must be
// a.Cols x b.Cols.
func MulAT(dst, a, b *Dense) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("matrix: MulAT inner dims %d vs %d", a.Rows, b.Rows))
	}
	mustShape(dst, a.Cols, b.Cols)
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MulBT computes dst = a * bᵀ (b is used transposed). dst must be
// a.Rows x b.Rows.
func MulBT(dst, a, b *Dense) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulBT inner dims %d vs %d", a.Cols, b.Cols))
	}
	mustShape(dst, a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			sum := 0.0
			for k, av := range arow {
				sum += av * brow[k]
			}
			drow[j] = sum
		}
	}
}

// AddRowVector adds vector v to every row of m (broadcast add, used for
// biases). len(v) must equal m.Cols.
func (m *Dense) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("matrix: AddRowVector len %d vs cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, x := range v {
			row[j] += x
		}
	}
}

// ColSums returns the per-column sums of m (used for bias gradients).
func (m *Dense) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

func mustSameShape(a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func mustShape(m *Dense, rows, cols int) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("matrix: dst shape %dx%d, want %dx%d", m.Rows, m.Cols, rows, cols))
	}
}
