package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 agree on %d/100 draws", same)
	}
}

func TestAdjacentSeedsUncorrelated(t *testing.T) {
	// SplitMix64 seeding should decorrelate seed and seed+1.
	a, b := New(1000), New(1001)
	var xor uint64
	for i := 0; i < 64; i++ {
		xor |= a.Uint64() ^ b.Uint64()
	}
	if bitsSet(xor) < 32 {
		t.Fatalf("adjacent seeds look correlated: xor popcount %d", bitsSet(xor))
	}
}

func bitsSet(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first draw")
	}
	// A re-created parent splits identically: replay determinism.
	parent2 := New(7)
	d1 := parent2.Split()
	if got, want := d1.Uint64(), New(7).Split().Uint64(); got != want {
		t.Fatalf("split not deterministic: %d vs %d", got, want)
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := New(19)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(2)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean %v too far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for trial := 0; trial < 50; trial++ {
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				t.Fatalf("not a permutation: %v", p)
			}
			seen[v] = true
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(31)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate %v", frac)
	}
}

func TestRangeProperty(t *testing.T) {
	f := func(seed uint64, lo, hi int16) bool {
		l, h := float64(lo), float64(hi)
		if l >= h {
			l, h = h, l+1
		}
		v := New(seed).Range(l, h)
		return v >= l && v < h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPropertyUniformCoverage(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		v := r.Intn(7)
		return v >= 0 && v < 7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIntoMatchesSplit(t *testing.T) {
	a := New(97)
	b := New(97)
	var child Source
	for i := 0; i < 16; i++ {
		want := a.Split()
		// Leave a stale Gaussian spare behind to prove SplitInto resets it.
		child.spareOK = true
		child.spare = 42
		b.SplitInto(&child)
		for j := 0; j < 8; j++ {
			if w, g := want.Uint64(), child.Uint64(); w != g {
				t.Fatalf("split %d draw %d: Split %#x, SplitInto %#x", i, j, w, g)
			}
		}
		if w, g := want.Norm(), child.Norm(); w != g {
			t.Fatalf("split %d: Norm diverged: %v vs %v", i, w, g)
		}
		// Parents must stay in lockstep too.
		if w, g := a.Uint64(), b.Uint64(); w != g {
			t.Fatalf("split %d: parents diverged: %#x vs %#x", i, w, g)
		}
	}
}
