// Package stats implements the statistics substrate for Auric: descriptive
// moments (including the skewness measure of Sec 2.6), contingency tables,
// and the chi-square test of independence (Sec 3.2) built on a from-scratch
// implementation of the regularized incomplete gamma function.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Skewness computes the moment coefficient of skewness used in Sec 2.6 of
// the paper:
//
//	( (1/n) Σ (Xi - X̄)^3 ) / ( (1/n) Σ (Xi - X̄)^2 )^(3/2)
//
// It returns 0 when the distribution is degenerate (fewer than two samples
// or zero variance).
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// SkewClass buckets a skewness value the way the paper does: |s| <= 0.5 is
// approximately symmetric, 0.5 < |s| <= 1 moderately skewed, |s| > 1 highly
// skewed.
type SkewClass int

const (
	Symmetric SkewClass = iota
	ModeratelySkewed
	HighlySkewed
)

// String names the class.
func (s SkewClass) String() string {
	switch s {
	case Symmetric:
		return "symmetric"
	case ModeratelySkewed:
		return "moderately-skewed"
	case HighlySkewed:
		return "highly-skewed"
	default:
		return "unknown"
	}
}

// ClassifySkew buckets a skewness value per the thresholds of Sec 2.6.
func ClassifySkew(s float64) SkewClass {
	a := math.Abs(s)
	switch {
	case a > 1:
		return HighlySkewed
	case a > 0.5:
		return ModeratelySkewed
	default:
		return Symmetric
	}
}
