package mathx

import (
	"math"
	"sort"
)

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

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// GeoMean returns the geometric mean of xs. Non-positive entries are
// rejected by returning 0, since a geometric mean is undefined for them.
// The paper reports all aggregate speedups as geometric means.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// WithinFraction reports whether at least frac of the samples lie within
// tol (relative) of the sample mean. The paper's convergence rule (§4.1) is
// WithinFraction(samples, 0.95, 0.05): run until 95% of measurements are
// within 5% of the mean. An empty sample set is not converged.
func WithinFraction(xs []float64, frac, tol float64) bool {
	if len(xs) == 0 {
		return false
	}
	m := Mean(xs)
	if m == 0 {
		return false
	}
	in := 0
	for _, x := range xs {
		if math.Abs(x-m) <= tol*math.Abs(m) {
			in++
		}
	}
	return float64(in) >= frac*float64(len(xs))
}
