package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile of
// xs, by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how the benchmark's spread is judged. One
// value is its own quartiles; no values give NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		// Python clamps j first and then interpolates (or, for two values,
		// extrapolates) with the clamped index.
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// median returns the middle value of xs, or the mean of the two middle
// values; no values give NaN.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0: a ratio over no attempts reports no
// successes.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
