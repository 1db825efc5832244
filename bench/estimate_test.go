package main

import (
	"math"
	"testing"
)

// ascending returns 1..n.
func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestBestDecileNeedsTenAtOrBelow: the gated estimator is the 10th
// percentile but never a rank under ten, and says so when it cannot be.
func TestBestDecileNeedsTenAtOrBelow(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 1, false},   // too few: the minimum, flagged
		{10, 10, true},  // the 10th smallest is the largest
		{50, 10, true},  // 10% would be rank 5: held at rank 10
		{100, 10, true}, // rank 10 is the 10th percentile
		{1000, 100, true},
	} {
		got, ok := bestDecile(ascending(c.n))
		if got != c.want || ok != c.ok {
			t.Errorf("bestDecile(1..%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if v, ok := bestDecile(nil); !math.IsNaN(v) || ok {
		t.Errorf("bestDecile(nil) = %v, %v", v, ok)
	}
}

// TestHighTailTenBeyond: the reported tail is the highest percentile with
// ten samples beyond it.
func TestHighTailTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		want, pct float64
	}{
		{99, 99, 100},   // nine beyond p90: only the maximum is left
		{100, 90, 90},   // exactly ten beyond p90
		{999, 900, 90},  // nine beyond p99
		{1000, 990, 99}, // ten beyond p99
		{10000, 9990, 99.9},
	} {
		got, pct := highTail(ascending(c.n))
		if got != c.want || pct != c.pct {
			t.Errorf("highTail(1..%d) = %v at p%v; want %v at p%v", c.n, got, pct, c.want, c.pct)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, which the driver judges by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{ascending(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 12, 11, 30, 9, 13, 12}, [3]float64{10, 12, 13}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := iqrFrac(ascending(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrFrac(1..10) = %v, want 1", got)
	}
}
