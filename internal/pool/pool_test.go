package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestExecutesAllTasks(t *testing.T) {
	p := New(4)
	defer p.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if err := p.Submit(func() {
			n.Add(1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("executed %d/100", n.Load())
	}
}

func TestWidthClamped(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatalf("width %d", p.Workers())
	}
}

func TestParallelism(t *testing.T) {
	p := New(4)
	defer p.Close()
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		p.Submit(func() {
			defer wg.Done()
			cur := inFlight.Add(1)
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
		})
	}
	wg.Wait()
	if peak.Load() < 2 {
		t.Fatalf("no observed parallelism (peak %d)", peak.Load())
	}
	if peak.Load() > 4 {
		t.Fatalf("parallelism exceeded pool width: %d", peak.Load())
	}
}

func TestCloseIdempotentAndRejects(t *testing.T) {
	p := New(2)
	p.Close()
	p.Close() // must not panic
	if err := p.Submit(func() {}); err != ErrClosed {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

func TestCloseWaitsForQueued(t *testing.T) {
	p := New(1)
	var done atomic.Bool
	p.Submit(func() { time.Sleep(20 * time.Millisecond) })
	p.Submit(func() { done.Store(true) })
	p.Close()
	if !done.Load() {
		t.Fatal("Close returned before queued task ran")
	}
}

func TestExecutedCounter(t *testing.T) {
	p := New(2)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		p.Submit(func() { wg.Done() })
	}
	wg.Wait()
	p.Close()
	if p.Executed() != 10 {
		t.Fatalf("executed counter %d", p.Executed())
	}
}

func TestPanickingTaskKeepsWorkerAlive(t *testing.T) {
	// Every worker's first task panics; the pool must recover all of
	// them, count them, and still execute a full follow-up load at full
	// width — a dead worker would strand its deque and hang Close.
	p := New(4)
	var boom sync.WaitGroup
	for i := 0; i < 8; i++ {
		boom.Add(1)
		if err := p.Submit(func() {
			defer boom.Done()
			panic("task bug")
		}); err != nil {
			t.Fatal(err)
		}
	}
	boom.Wait()
	if got := p.Metrics().PanickedTasks; got != 8 {
		t.Fatalf("PanickedTasks = %d, want 8", got)
	}

	// Throughput after the panics: enough concurrent barrier tasks that
	// completion requires all four workers to still be dispatching.
	var gate sync.WaitGroup
	gate.Add(4)
	release := make(chan struct{})
	var done sync.WaitGroup
	for i := 0; i < 4; i++ {
		done.Add(1)
		if err := p.Submit(func() {
			defer done.Done()
			gate.Done()
			<-release
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitOK := make(chan struct{})
	go func() { gate.Wait(); close(waitOK) }()
	select {
	case <-waitOK:
	case <-time.After(5 * time.Second):
		t.Fatal("pool lost workers after panics: 4-way barrier never filled")
	}
	close(release)
	done.Wait()

	// Close must not hang on a worker killed by a panic.
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after panicking tasks")
	}
	if got := p.Metrics().Executed; got != 12 {
		t.Fatalf("Executed = %d, want 12 (panicked tasks count too)", got)
	}
}
