package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"auric/internal/rng"
)

func TestMul(t *testing.T) {
	a := dense([]float64{1, 2}, []float64{3, 4})
	b := dense([]float64{5, 6}, []float64{7, 8})
	dst := New(2, 2)
	Mul(dst, a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if dst.Row(i)[j] != want[i][j] {
				t.Errorf("Mul[%d][%d] = %v, want %v", i, j, dst.Row(i)[j], want[i][j])
			}
		}
	}
}

func TestMulTransposesAgree(t *testing.T) {
	// For random matrices: MulAT(aᵀ as a) == Mul(transpose(a), b) and
	// MulBT(a, b) == Mul(a, transpose(b)).
	r := rng.New(11)
	randM := func(rows, cols int) *Dense {
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		return m
	}
	transpose := func(m *Dense) *Dense {
		out := New(m.Cols, m.Rows)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				out.Row(j)[i] = m.Row(i)[j]
			}
		}
		return out
	}
	for trial := 0; trial < 5; trial++ {
		a := randM(4, 3)
		b := randM(4, 5)
		got := New(3, 5)
		MulAT(got, a, b)
		want := New(3, 5)
		Mul(want, transpose(a), b)
		for i := range got.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
				t.Fatalf("MulAT disagrees with explicit transpose at %d", i)
			}
		}

		c := randM(4, 3)
		d := randM(5, 3)
		got2 := New(4, 5)
		MulBT(got2, c, d)
		want2 := New(4, 5)
		Mul(want2, c, transpose(d))
		for i := range got2.Data {
			if math.Abs(got2.Data[i]-want2.Data[i]) > 1e-12 {
				t.Fatalf("MulBT disagrees with explicit transpose at %d", i)
			}
		}
	}
}

func TestMulDimensionPanics(t *testing.T) {
	a := New(2, 3)
	b := New(2, 2) // inner mismatch
	dst := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("Mul with bad inner dims did not panic")
		}
	}()
	Mul(dst, a, b)
}

func TestApplyScaleAddAxpy(t *testing.T) {
	m := dense([]float64{1, -2}, []float64{-3, 4})
	m.Apply(math.Abs)
	if m.Row(0)[1] != 2 || m.Row(1)[0] != 3 {
		t.Error("Apply(abs) failed")
	}
	m.Apply(func(x float64) float64 { return 2 * x }) // scale
	if m.Row(1)[1] != 8 {
		t.Error("Apply(scale) failed")
	}
	n := dense([]float64{1, 1}, []float64{1, 1})
	m.Axpy(1, n) // add
	if m.Row(0)[0] != 3 {
		t.Error("Axpy(1) failed")
	}
	m.Axpy(-2, n)
	if m.Row(0)[0] != 1 {
		t.Error("Axpy(-2) failed")
	}
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := dense([]float64{1, 2}, []float64{3, 4}, []float64{5, 6})
	m.AddRowVector([]float64{10, 20})
	if m.Row(0)[0] != 11 || m.Row(2)[1] != 26 {
		t.Error("AddRowVector failed")
	}
	sums := m.ColSums()
	if sums[0] != 11+13+15 || sums[1] != 22+24+26 {
		t.Errorf("ColSums = %v", sums)
	}
}

func TestMulLinearity(t *testing.T) {
	// Property: (a1+a2)*b == a1*b + a2*b.
	f := func(vals [12]float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		a1 := dense([]float64{vals[0], vals[1]}, []float64{vals[2], vals[3]})
		a2 := dense([]float64{vals[4], vals[5]}, []float64{vals[6], vals[7]})
		b := dense([]float64{vals[8], vals[9]}, []float64{vals[10], vals[11]})
		sum := dense(a1.Row(0), a1.Row(1))
		sum.Axpy(1, a2)
		lhs := New(2, 2)
		Mul(lhs, sum, b)
		r1, r2 := New(2, 2), New(2, 2)
		Mul(r1, a1, b)
		Mul(r2, a2, b)
		r1.Axpy(1, r2)
		for i := range lhs.Data {
			scale := 1 + math.Abs(lhs.Data[i])
			if math.Abs(lhs.Data[i]-r1.Data[i]) > 1e-9*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// dense builds a matrix from equal-length rows.
func dense(rows ...[]float64) *Dense {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}
