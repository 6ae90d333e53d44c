package stats

import (
	"math"
	"sync"
)

// The regularized incomplete gamma functions P(a,x) and Q(a,x) = 1-P(a,x)
// follow the classic series/continued-fraction split (Numerical Recipes
// §6.2): the series converges quickly for x < a+1, the Lentz continued
// fraction for x >= a+1. They are the only special functions the chi-square
// test needs: for X ~ χ²(k), SF(x) = Q(k/2, x/2).

const (
	gammaEps   = 1e-14
	gammaItMax = 500
	gammaFPMin = 1e-300
)

// upperRegGamma computes Q(a, x) = 1 - P(a, x).
func upperRegGamma(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 1
	case x < a+1:
		return 1 - gammaSeries(a, x)
	default:
		return gammaContinuedFraction(a, x)
	}
}

// gammaSeries evaluates P(a,x) by its power series.
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaItMax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaContinuedFraction evaluates Q(a,x) by the Lentz continued fraction.
func gammaContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / gammaFPMin
	d := 1 / b
	h := d
	for i := 1; i <= gammaItMax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < gammaFPMin {
			d = gammaFPMin
		}
		c = b + an/c
		if math.Abs(c) < gammaFPMin {
			c = gammaFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareSF returns the survival function P(X > x) for X ~ χ²(df) — the
// p-value of an observed chi-square statistic x.
func ChiSquareSF(x float64, df int) float64 {
	if df <= 0 {
		return 1
	}
	if x <= 0 {
		return 1
	}
	return upperRegGamma(float64(df)/2, x/2)
}

// critCache memoizes ChiSquareCritical: the bisection costs ~200 survival
// evaluations, the arguments are a small integer and a fixed significance
// level, and dependency selection asks for the same few pairs thousands of
// times per fit — and on every live-ingest Update. Safe for concurrent use
// (Train fits parameter models in parallel).
var critCache sync.Map // critKey -> float64

type critKey struct {
	df    int
	alpha float64
}

// ChiSquareCritical returns the critical value c such that
// P(X > c) = alpha for X ~ χ²(df), found by bisection on the survival
// function. This is the "critical value from the chi-square distribution
// table" of Sec 3.2. Results are memoized.
func ChiSquareCritical(df int, alpha float64) float64 {
	if df <= 0 {
		return 0
	}
	if alpha <= 0 {
		return math.Inf(1)
	}
	if alpha >= 1 {
		return 0
	}
	key := critKey{df, alpha}
	if v, ok := critCache.Load(key); ok {
		return v.(float64)
	}
	lo, hi := 0.0, float64(df)
	for ChiSquareSF(hi, df) > alpha {
		hi *= 2
		if hi > 1e9 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if ChiSquareSF(mid, df) > alpha {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10*(1+hi) {
			break
		}
	}
	c := (lo + hi) / 2
	critCache.Store(key, c)
	return c
}
