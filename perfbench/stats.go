package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of samples, computed
// exactly from the raw values by linear interpolation between the two
// nearest order statistics (the "type 7" definition numpy and R default
// to). It sorts samples in place and returns NaN for an empty slice.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	if q <= 0 {
		return samples[0]
	}
	if q >= 1 {
		return samples[len(samples)-1]
	}
	h := q * float64(len(samples)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(samples) {
		return samples[lo]
	}
	return samples[lo] + (h-float64(lo))*(samples[lo+1]-samples[lo])
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// tailLevels are the percentiles a tail report may use, highest first.
var tailLevels = []float64{0.999, 0.995, 0.99, 0.98, 0.95, 0.9, 0.75, 0.5}

// tail picks the highest percentile in tailLevels that still has at least
// ten samples beyond it, so the reported tail rests on real observations
// rather than on the single slowest request. It returns the level, its
// value and the number of samples beyond it; ok is false when even the
// median has fewer than ten samples above it.
func tail(samples []float64) (level, value float64, beyond int, ok bool) {
	n := len(samples)
	for _, l := range tailLevels {
		b := int(math.Floor(float64(n)*(1-l) + 1e-9))
		if b >= 10 {
			return l, quantile(samples, l), b, true
		}
	}
	return 0, 0, 0, false
}

// tailString renders tail for the human-readable summary.
func tailString(samples []float64) string {
	l, v, b, ok := tail(samples)
	if !ok {
		return fmt.Sprintf("n=%d (too few samples for a tail)", len(samples))
	}
	return fmt.Sprintf("p%g=%.4f ms (n=%d, %d beyond)", l*100, v, len(samples), b)
}
