package recycle

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/racemode"
)

// TestSlotsFollowProcessors: a list has one slot per processor, and never
// fewer than minSlots.
func TestSlotsFollowProcessors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ procs, want int }{{1, minSlots}, {minSlots, minSlots}, {16, 16}} {
		runtime.GOMAXPROCS(c.procs)
		if got := New[int]().Slots(); got != c.want {
			t.Errorf("GOMAXPROCS %d: %d slots, want %d", c.procs, got, c.want)
		}
	}
}

// TestOverflowRecycledUntilCollected: a list hands back every value put into
// it, the ones past Slots() from its overflow; through two garbage
// collections it keeps exactly Slots() values; each value is handed out once;
// and Drain empties it.
func TestOverflowRecycledUntilCollected(t *testing.T) {
	// One processor, so the gets read the overflow's cache the puts filled.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l := New[int]()
	n := l.Slots()
	fill := func() {
		for i := range 2 * n {
			v := i
			l.Put(&v)
		}
	}
	take := func() int {
		seen := map[int]bool{}
		for v := l.Get(); v != nil; v = l.Get() {
			if seen[*v] {
				t.Fatalf("value %d handed out twice", *v)
			}
			seen[*v] = true
		}
		return len(seen)
	}
	// A race-mode sync.Pool drops puts at random, so the overflow may lose
	// some; the slots may not.
	fill()
	if got := take(); got != 2*n && !racemode.Enabled {
		t.Fatalf("%d puts, %d values handed back", 2*n, got)
	}
	fill()
	runtime.GC()
	runtime.GC()
	if got := take(); got != n {
		t.Fatalf("%d puts and two collections: %d values parked, want the %d slots'", 2*n, got, n)
	}
	fill()
	l.Drain()
	if l.Get() != nil {
		t.Fatal("Drain left a value parked")
	}
}

// TestConcurrentUseHandsOutEachValueOnce: callers taking and parking at once
// never hold one value together (run under -race as well).
func TestConcurrentUseHandsOutEachValueOnce(t *testing.T) {
	type box struct{ owner int }
	l := New[box]()
	var wg sync.WaitGroup
	for g := 1; g <= 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				b := l.Get()
				if b == nil {
					b = new(box)
				}
				if b.owner != 0 {
					t.Errorf("goroutine %d took a value goroutine %d holds", g, b.owner)
					return
				}
				b.owner = g
				runtime.Gosched()
				b.owner = 0
				l.Put(b)
			}
		}()
	}
	wg.Wait()
}
