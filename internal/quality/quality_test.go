package quality

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestRelativeMSE(t *testing.T) {
	if got := RelativeMSE([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Fatalf("identical vectors: %v", got)
	}
	// err = (1)^2 = 1, ref = 1^2+2^2 = 5.
	if got := RelativeMSE([]float64{1, 3}, []float64{1, 2}); got != 0.2 {
		t.Fatalf("RelativeMSE: %v", got)
	}
	if got := RelativeMSE(nil, nil); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	if got := RelativeMSE([]float64{1}, []float64{0}); !math.IsInf(got, 1) {
		t.Fatalf("zero reference with error should be +Inf: %v", got)
	}
	if got := RelativeMSE([]float64{0}, []float64{0}); got != 0 {
		t.Fatalf("zero reference, zero error: %v", got)
	}
}

func TestRelativeMSENonNegativeProperty(t *testing.T) {
	f := func(a, b []int8) bool {
		ga := make([]float64, len(a))
		gb := make([]float64, len(b))
		for i, v := range a {
			ga[i] = float64(v)
		}
		for i, v := range b {
			gb[i] = float64(v)
		}
		return RelativeMSE(ga, gb) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAvgRelativePriceDiff(t *testing.T) {
	if got := AvgRelativePriceDiff([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Fatalf("identical prices: %v", got)
	}
	// |1.1-1|/1 = 0.1 ; |3-2|/2 = 0.5 ; avg = 0.3
	got := AvgRelativePriceDiff([]float64{1.1, 3}, []float64{1, 2})
	if math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("AvgRelativePriceDiff: %v", got)
	}
	// Zero reference falls back to absolute difference.
	if got := AvgRelativePriceDiff([]float64{0.5}, []float64{0}); got != 0.5 {
		t.Fatalf("zero ref: %v", got)
	}
	if AvgRelativePriceDiff(nil, nil) != 0 {
		t.Fatal("empty prices")
	}
}

func TestAvgFaceBoxDistance(t *testing.T) {
	a := FaceBox{Corners: [4]mathx.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}}}
	b := FaceBox{Corners: [4]mathx.Vec2{{X: 3, Y: 4}, {X: 4, Y: 4}, {X: 3, Y: 5}, {X: 4, Y: 5}}}
	// Every corner moved by (3,4): distance 5.
	if got := AvgFaceBoxDistance([]FaceBox{a}, []FaceBox{b}); got != 5 {
		t.Fatalf("AvgFaceBoxDistance: %v", got)
	}
	if got := AvgFaceBoxDistance([]FaceBox{a}, []FaceBox{a}); got != 0 {
		t.Fatalf("identical boxes: %v", got)
	}
	if AvgFaceBoxDistance(nil, nil) != 0 {
		t.Fatal("empty boxes")
	}
}

func TestDaviesBouldinSeparatedVsOverlapping(t *testing.T) {
	// Two well-separated, tight clusters -> low DB.
	tight := Clustering{
		Points: [][]float64{{0, 0}, {0.1, 0}, {10, 10}, {10.1, 10}},
		Assign: []int{0, 0, 1, 1},
	}
	// Two overlapping, spread clusters -> higher DB.
	loose := Clustering{
		Points: [][]float64{{0, 0}, {6, 6}, {4, 4}, {10, 10}},
		Assign: []int{0, 0, 1, 1},
	}
	dbTight, dbLoose := DaviesBouldin(tight), DaviesBouldin(loose)
	if dbTight >= dbLoose {
		t.Fatalf("tight %v should beat loose %v", dbTight, dbLoose)
	}
	if dbTight < 0 || dbLoose < 0 {
		t.Fatal("DB must be non-negative")
	}
}

func TestDaviesBouldinDegenerate(t *testing.T) {
	if got := DaviesBouldin(Clustering{}); got != 0 {
		t.Fatalf("empty clustering: %v", got)
	}
	single := Clustering{Points: [][]float64{{1}, {2}}, Assign: []int{0, 0}}
	if got := DaviesBouldin(single); got != 0 {
		t.Fatalf("single cluster: %v", got)
	}
}

func TestDaviesBouldinDiffSymmetric(t *testing.T) {
	a := Clustering{Points: [][]float64{{0}, {1}, {5}, {6}}, Assign: []int{0, 0, 1, 1}}
	b := Clustering{Points: [][]float64{{0}, {1}, {5}, {6}}, Assign: []int{0, 1, 0, 1}}
	if DaviesBouldinDiff(a, b) != DaviesBouldinDiff(b, a) {
		t.Fatal("DaviesBouldinDiff not symmetric")
	}
	if DaviesBouldinDiff(a, a) != 0 {
		t.Fatal("self-diff should be zero")
	}
}

func TestBCubedPerfect(t *testing.T) {
	gold := []int{0, 0, 1, 1, 2}
	if got := BCubed(gold, gold); got != 1 {
		t.Fatalf("perfect B3: %v", got)
	}
	// Relabeled but identical partition is still perfect.
	relabel := []int{7, 7, 3, 3, 9}
	if got := BCubed(relabel, gold); got != 1 {
		t.Fatalf("relabeling should not matter: %v", got)
	}
}

func TestBCubedDegraded(t *testing.T) {
	gold := []int{0, 0, 0, 1, 1, 1}
	allOne := []int{0, 0, 0, 0, 0, 0}
	allSingle := []int{0, 1, 2, 3, 4, 5}
	f1 := BCubed(allOne, gold)
	f2 := BCubed(allSingle, gold)
	if f1 >= 1 || f2 >= 1 {
		t.Fatalf("degraded clusterings should score < 1: %v %v", f1, f2)
	}
	if f1 <= 0 || f2 <= 0 {
		t.Fatalf("scores should stay positive: %v %v", f1, f2)
	}
}

func TestBCubedEmpty(t *testing.T) {
	if got := BCubed(nil, nil); got != 1 {
		t.Fatalf("empty B3 should be 1 (vacuously perfect): %v", got)
	}
}

func TestBCubedRangeProperty(t *testing.T) {
	f := func(pred, gold []uint8) bool {
		n := len(pred)
		if len(gold) < n {
			n = len(gold)
		}
		if n == 0 {
			return true
		}
		p := make([]int, n)
		g := make([]int, n)
		for i := 0; i < n; i++ {
			p[i] = int(pred[i]) % 4
			g[i] = int(gold[i]) % 4
		}
		v := BCubed(p, g)
		return v >= 0 && v <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
