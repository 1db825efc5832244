package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVec2Ops(t *testing.T) {
	a, b := Vec2{1, 2}, Vec2{3, -1}
	if got := a.Add(b); got != (Vec2{4, 1}) {
		t.Fatalf("Add: %v", got)
	}
	if got := a.Sub(b); got != (Vec2{-2, 3}) {
		t.Fatalf("Sub: %v", got)
	}
	if got := a.Scale(2); got != (Vec2{2, 4}) {
		t.Fatalf("Scale: %v", got)
	}
	if got := a.Dot(b); got != 1 {
		t.Fatalf("Dot: %v", got)
	}
	if got := (Vec2{3, 4}).Norm(); got != 5 {
		t.Fatalf("Norm: %v", got)
	}
	if got := (Vec2{0, 0}).Dist(Vec2{3, 4}); got != 5 {
		t.Fatalf("Dist: %v", got)
	}
}

func TestVec3Ops(t *testing.T) {
	a, b := Vec3{1, 2, 3}, Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Fatalf("Add: %v", got)
	}
	if got := b.Sub(a); got != (Vec3{3, 3, 3}) {
		t.Fatalf("Sub: %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Fatalf("Dot: %v", got)
	}
	if got := (Vec3{2, 3, 6}).Norm(); got != 7 {
		t.Fatalf("Norm: %v", got)
	}
	if got := (Vec3{-2, 0.5, 9}).Clamp(0, 1); got != (Vec3{0, 0.5, 1}) {
		t.Fatalf("Clamp: %v", got)
	}
}

func TestAvgEuclidean3(t *testing.T) {
	a := []Vec3{{0, 0, 0}, {1, 0, 0}}
	b := []Vec3{{3, 4, 0}, {1, 0, 0}}
	if got := AvgEuclidean3(a, b); got != 2.5 {
		t.Fatalf("AvgEuclidean3: %v", got)
	}
	if got := AvgEuclidean3(nil, b); got != 0 {
		t.Fatalf("AvgEuclidean3 empty: %v", got)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean: %v", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance: %v", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Fatalf("StdDev: %v", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate cases")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); !almostEq(got, 10) {
		t.Fatalf("GeoMean: %v", got)
	}
	if got := GeoMean([]float64{2, 8}); !almostEq(got, 4) {
		t.Fatalf("GeoMean: %v", got)
	}
	if GeoMean([]float64{1, -1}) != 0 {
		t.Fatal("GeoMean should reject non-positive")
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean empty")
	}
}

func TestGeoMeanBetweenMinAndMax(t *testing.T) {
	f := func(a, b, c uint8) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := GeoMean(xs)
		return g >= Min(xs)-1e-9 && g <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("Median odd: %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median even: %v", got)
	}
	if Median(nil) != 0 {
		t.Fatal("Median empty")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("Min/Max")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("Min/Max empty")
	}
}

func TestWithinFraction(t *testing.T) {
	// All samples equal: trivially converged.
	if !WithinFraction([]float64{5, 5, 5}, 0.95, 0.05) {
		t.Fatal("identical samples should converge")
	}
	// One far outlier in twenty: 95% within tolerance still holds.
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = 100
	}
	xs[0] = 110 // mean 100.5; outlier at 9.45% off
	if !WithinFraction(xs, 0.95, 0.05) {
		t.Fatal("19/20 within 5% should pass at 95%")
	}
	// Wildly spread samples: not converged.
	if WithinFraction([]float64{1, 100, 1, 100}, 0.95, 0.05) {
		t.Fatal("spread samples should not converge")
	}
	if WithinFraction(nil, 0.95, 0.05) {
		t.Fatal("empty should not converge")
	}
	if WithinFraction([]float64{0, 0}, 0.95, 0.05) {
		t.Fatal("zero mean should not converge")
	}
}

func TestMedianWithinMinMaxProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			// Skip values whose pairwise sums overflow; Median's
			// interpolation is not defined for them.
			if math.IsNaN(x) || math.Abs(x) > math.MaxFloat64/2 {
				return true
			}
		}
		m := Median(xs)
		return m >= Min(xs) && m <= Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
