package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestQuantileExact(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.9, 9.1}, {0.25, 3.25},
	} {
		if got := quantile(append([]float64(nil), ten...), c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{42}, 0.9); got != 42 {
		t.Errorf("quantile of one sample = %v, want 42", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
}

// TestQuantileOrderStatistics checks that every quantile lies between the
// two order statistics around its rank and hits them exactly at the ranks.
func TestQuantileOrderStatistics(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(500)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.ExpFloat64()
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for i := 0; i < n; i++ {
			q := 0.0
			if n > 1 {
				q = float64(i) / float64(n-1)
			}
			if got := quantile(append([]float64(nil), xs...), q); math.Abs(got-sorted[i]) > 1e-9 {
				t.Fatalf("n=%d: quantile at rank %d = %v, want %v", n, i, got, sorted[i])
			}
		}
		q := r.Float64()
		got := quantile(xs, q)
		lo := int(math.Floor(q * float64(n-1)))
		hi := min(lo+1, n-1)
		if got < sorted[lo] || got > sorted[hi] {
			t.Fatalf("quantile(%v) = %v outside [%v, %v]", q, got, sorted[lo], sorted[hi])
		}
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		level float64
	}{{20, 0.5}, {100, 0.9}, {1000, 0.99}, {2000, 0.995}, {10000, 0.999}, {199, 0.9}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		level, _, beyond, ok := tail(xs)
		if !ok || level != c.level || beyond < 10 {
			t.Errorf("n=%d: tail level %v with %d beyond (ok=%v), want %v", c.n, level, beyond, ok, c.level)
		}
	}
	if _, _, _, ok := tail(make([]float64, 19)); ok {
		t.Error("19 samples cannot support a tail with ten beyond the median")
	}
}
