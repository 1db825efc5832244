package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie at or beyond a reported tail
// quantile. With fewer the quantile is one or two lucky or unlucky
// repetitions, not a property of the program.
const minTail = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// bestDecile is the gated timing estimator: the 10th percentile of the
// per-repetition samples, but never a rank below minTail, so at least ten
// samples are at or below it. On a shared host the fast tail of a timing
// distribution repeats between runs far better than its median (README,
// "Why q10"). ok is false with fewer than minTail samples; the smallest
// sample is returned so smoke runs still print a number.
func bestDecile(xs []float64) (v float64, ok bool) {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN(), false
	}
	if len(s) < minTail {
		return s[0], false
	}
	rank := int(math.Ceil(0.10 * float64(len(s))))
	if rank < minTail {
		rank = minTail
	}
	return s[rank-1], true
}

// highTail returns the highest of the percentiles 90, 99 and 99.9 that
// still has minTail samples beyond it, with the percentile chosen; below
// 100 samples none qualifies and it returns the maximum as percentile 100
// (0, like mathx.Median, when there are no samples at all).
func highTail(xs []float64) (v float64, pct float64) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, 100
	}
	for _, permille := range []int{999, 990, 900} {
		if beyond := len(s) * (1000 - permille) / 1000; beyond >= minTail {
			return s[len(s)-beyond-1], float64(permille) / 10
		}
	}
	return s[len(s)-1], 100
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), so
// the compare tool and the driver that judges this benchmark agree on
// spreads. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// iqrFrac is the interquartile range as a share of the median: the spread
// measure the driver applies to each end-to-end metric.
func iqrFrac(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
