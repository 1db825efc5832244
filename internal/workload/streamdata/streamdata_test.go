package streamdata

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

func TestStreamFixedAcrossRuns(t *testing.T) {
	a := Stream(50, false)
	b := Stream(50, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs", i)
		}
	}
}

func TestLabelsInRange(t *testing.T) {
	for _, p := range Stream(200, false) {
		if p.Label < 0 || p.Label >= NumComponents {
			t.Fatalf("label %d", p.Label)
		}
	}
}

func TestComponentsSeparated(t *testing.T) {
	// Points of one component cluster around their center; different
	// components are far apart on average.
	pts := Stream(500, false)
	centers := Centers()
	var within, between float64
	var nWithin, nBetween int
	for _, p := range pts {
		within += math.Sqrt(SqDist(p.X, centers[p.Label]))
		nWithin++
		other := (p.Label + 1) % NumComponents
		between += math.Sqrt(SqDist(p.X, centers[other]))
		nBetween++
	}
	if within/float64(nWithin) >= between/float64(nBetween)/2 {
		t.Fatalf("components not separated: within %v, between %v",
			within/float64(nWithin), between/float64(nBetween))
	}
}

func TestBadTrainingOverlaps(t *testing.T) {
	pts := Stream(500, true)
	// All points near the origin regardless of label.
	var maxNorm float64
	for _, p := range pts {
		n := math.Sqrt(SqDist(p.X, [Dim]float64{}))
		if n > maxNorm {
			maxNorm = n
		}
	}
	if maxNorm > 8 {
		t.Fatalf("bad-training points should overlap at origin: max norm %v", maxNorm)
	}
}

func TestSqDist(t *testing.T) {
	a := [Dim]float64{1, 0, 0, 0}
	b := [Dim]float64{0, 2, 0, 0}
	if got := SqDist(a, b); got != 5 {
		t.Fatalf("SqDist: %v", got)
	}
}

func TestCoords(t *testing.T) {
	pts, rows := Stream(40, false), Coords(40, false)
	if len(rows) != len(pts) || cap(rows) != len(pts) {
		t.Fatalf("rows: len %d cap %d, want %d", len(rows), cap(rows), len(pts))
	}
	for i, row := range rows {
		if len(row) != Dim || cap(row) != Dim || &row[0] != &pts[i].X[0] {
			t.Fatalf("row %d does not alias point %d's coordinates", i, i)
		}
	}
}

func TestLabels(t *testing.T) {
	for _, bad := range []bool{false, true} {
		pts, labels := Stream(40, bad), Labels(40, bad)
		if len(labels) != len(pts) || cap(labels) != len(pts) {
			t.Fatalf("bad=%v: labels: len %d cap %d, want %d", bad, len(labels), cap(labels), len(pts))
		}
		for i, l := range labels {
			if l != pts[i].Label {
				t.Fatalf("bad=%v: label %d is %d, point's %d", bad, i, l, pts[i].Label)
			}
		}
	}
}

// TestMemo: a memo builds once per variant until a longer slice is asked
// for, hands out capacity-limited prefixes, and never writes a slice it
// handed out.
func TestMemo(t *testing.T) {
	builds := 0
	m := Memo[int]{Build: func(n int, bad bool) []int {
		builds++
		s := make([]int, n)
		for i := range s {
			s[i] = i
			if bad {
				s[i] = -i
			}
		}
		return s
	}}
	short := m.Get(4, false)
	if m.Get(3, false); builds != 1 {
		t.Fatalf("a shorter Get built again: %d builds", builds)
	}
	if got := m.Get(4, true); got[3] != -3 || builds != 2 {
		t.Fatalf("the bad variant shares the native one: %v after %d builds", got, builds)
	}
	long := m.Get(8, false)
	if builds != 3 || cap(short) != 4 || cap(long) != 8 || &short[0] == &long[0] {
		t.Fatalf("%d builds, caps %d and %d: a longer Get must build a fresh slice", builds, cap(short), cap(long))
	}
}

// TestStreamPrefix pins what the memo relies on: the generator is
// sequential from a fixed seed, so a shorter stream is a prefix of a longer
// one — whether it was cut from the cache or the cache grew past it.
func TestStreamPrefix(t *testing.T) {
	for _, bad := range []bool{false, true} {
		variants = [2]variant{}
		short := Stream(64, bad)
		long := Stream(300, bad) // grows the cache
		again := Stream(64, bad) // cut from the grown cache
		if cap(short) != 64 || cap(long) != 300 {
			t.Fatalf("bad=%v: caps %d, %d: an append could reach the shared tail", bad, cap(short), cap(long))
		}
		for i := range short {
			if short[i] != long[i] || again[i] != long[i] {
				t.Fatalf("bad=%v: point %d differs between Stream(64) and Stream(300)", bad, i)
			}
		}
		variants = [2]variant{}
		fresh := Stream(300, bad)
		for i := range fresh {
			if fresh[i] != long[i] {
				t.Fatalf("bad=%v: point %d differs between a grown and a fresh stream", bad, i)
			}
		}
	}
}

// TestStreamConcurrentFirstCalls races first calls of different lengths on
// both variants; run under -race it also checks the cache's locking.
func TestStreamConcurrentFirstCalls(t *testing.T) {
	variants = [2]variant{}
	want := map[bool][]Point{}
	for _, bad := range []bool{false, true} {
		want[bad] = Stream(512, bad)
	}
	variants = [2]variant{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n, bad := 64*(g+1), g%2 == 1
			pts, rows := Stream(n, bad), Coords(n, bad)
			if len(pts) != n || len(rows) != n {
				t.Errorf("goroutine %d: %d points, %d rows, want %d", g, len(pts), len(rows), n)
				return
			}
			for i := range pts {
				if pts[i] != want[bad][i] || rows[i][0] != pts[i].X[0] {
					t.Errorf("goroutine %d: point %d differs from the serial stream", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// rolledSqDist is SqDist as the loop it was: the summation order,
// ((0+d0²)+d1²)+d2²)+d3², the unrolled form must keep bit for bit.
func rolledSqDist(a, b [Dim]float64) float64 {
	sum := 0.0
	for d := 0; d < Dim; d++ {
		diff := a[d] - b[d]
		sum += diff * diff
	}
	return sum
}

// TestSqDistMatchesRolledLoop compares SqDist's bits with the rolled loop's on
// random points and on points built from signed zeros, subnormals, huge
// values, infinities and NaNs. A NaN result only has to be a NaN on both
// sides: when two NaNs meet in a sum, which payload survives follows the
// operand order the compiler picks, and that differs between call sites of
// one inlined function.
func TestSqDistMatchesRolledLoop(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), 1, -2.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, 1e154, -1e200,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000001),
	}
	r := rng.New(31)
	for i := 0; i < 50000; i++ {
		var a, b [Dim]float64
		for d := 0; d < Dim; d++ {
			a[d], b[d] = r.Range(-20, 20), r.Range(-20, 20)
			if i%2 == 1 && r.Intn(2) == 0 {
				a[d] = special[r.Intn(len(special))]
			}
			if i%2 == 1 && r.Intn(2) == 0 {
				b[d] = special[r.Intn(len(special))]
			}
		}
		got, want := SqDist(a, b), rolledSqDist(a, b)
		if math.IsNaN(got) && math.IsNaN(want) {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SqDist(%v, %v) = %v (%#x), the rolled loop gives %v (%#x)", a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

var sqDistSink float64

func BenchmarkSqDist(b *testing.B) {
	pts := Stream(1024, false)
	sum := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += SqDist(pts[i&1023].X, pts[(i+1)&1023].X)
	}
	sqDistSink = sum
}
