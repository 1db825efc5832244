package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSubmitCloseStress hammers Submit and SubmitBatch from many
// goroutines while Close lands concurrently. Run under `go test -race`
// (the `make race` tier) it proves the scheduler's claimed safety: no
// send-on-closed-channel panic, no data race, and the accepted-implies-
// executed contract — every task accepted before Close is executed by the
// time Close returns.
func TestSubmitCloseStress(t *testing.T) {
	iters := 40
	if testing.Short() {
		iters = 5
	}
	for it := 0; it < iters; it++ {
		p := New(1 + it%5)
		var accepted, ran atomic.Int64
		task := func() { ran.Add(1) }

		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; ; k++ {
					if (g+k)%2 == 0 {
						if p.Submit(task) != nil {
							return
						}
						accepted.Add(1)
						continue
					}
					batch := make([]Task, 1+k%7)
					for i := range batch {
						batch[i] = task
					}
					n, err := p.SubmitBatch(batch)
					accepted.Add(int64(n))
					if err != nil {
						return
					}
				}
			}()
		}
		close(start)
		time.Sleep(time.Duration(it%4) * 100 * time.Microsecond)
		p.Close()
		wg.Wait()

		if ran.Load() != accepted.Load() {
			t.Fatalf("iter %d: accepted %d tasks but %d ran", it, accepted.Load(), ran.Load())
		}
		if m := p.Metrics(); m.Executed != accepted.Load() || m.Submitted != m.Executed {
			t.Fatalf("iter %d: Submitted %d, Executed %d, want both %d accepted",
				it, m.Submitted, m.Executed, accepted.Load())
		}
	}
}

// TestConcurrentCloseIsSafe races several Close calls against submitters;
// Close must stay idempotent and the accepted-implies-executed contract
// must survive.
func TestConcurrentCloseIsSafe(t *testing.T) {
	for it := 0; it < 20; it++ {
		p := New(3)
		var accepted, ran atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if p.Submit(func() { ran.Add(1) }) != nil {
						return
					}
					accepted.Add(1)
				}
			}()
		}
		var cwg sync.WaitGroup
		for c := 0; c < 3; c++ {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				p.Close()
			}()
		}
		cwg.Wait()
		wg.Wait()
		// All Close calls returned; the first one waited for the drain,
		// but late-accepted tasks may still race the no-op Closes, so
		// settle via one more Close (idempotent, returns immediately).
		p.Close()
		if got, want := p.Metrics().Executed, accepted.Load(); got != want {
			t.Fatalf("iter %d: executed %d, accepted %d", it, got, want)
		}
	}
}

// TestSubmitBatchDeliversAll checks the batch path end to end, including a
// batch larger than the queue's capacity (which must block the submitter
// rather than drop), and that the counters account every task.
func TestSubmitBatchDeliversAll(t *testing.T) {
	p := New(4)
	const total = 4*queuePerWorker + 57 // deliberately beyond capacity
	var ran atomic.Int64
	tasks := make([]Task, total)
	for i := range tasks {
		tasks[i] = func() { ran.Add(1) }
	}
	n, err := p.SubmitBatch(tasks)
	if err != nil || n != total {
		t.Fatalf("SubmitBatch = %d, %v; want %d, nil", n, err, total)
	}
	p.Close() // drains every accepted task
	if ran.Load() != total {
		t.Fatalf("ran %d/%d", ran.Load(), total)
	}
	if m := p.Metrics(); m.Submitted != total || m.Executed != total || m.QueueDepthPeak < 1 {
		t.Fatalf("metrics %+v: want %d submitted and executed, peak at least 1", m, total)
	}
}

// TestSubmitBatchOnClosedPool checks the suffix contract: a closed pool
// returns how many tasks were enqueued so the caller can run the rest.
func TestSubmitBatchOnClosedPool(t *testing.T) {
	p := New(2)
	p.Close()
	tasks := []Task{func() {}, func() {}}
	n, err := p.SubmitBatch(tasks)
	if err != ErrClosed || n != 0 {
		t.Fatalf("SubmitBatch on closed pool = %d, %v; want 0, ErrClosed", n, err)
	}
	if n, err := p.SubmitBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty batch = %d, %v; want 0, nil", n, err)
	}
}

// TestTracedSubmitCloseStress repeats the Submit/Close hammer with the
// observability layer attached and snapshots/scrapes racing the workers.
// Under `go test -race` it proves the tracer's claim: Emit from every
// worker concurrent with Snapshot and the metric scrape is race-free, and
// the scheduler's dispatch counters agree with the pool's own metrics
// once the pool has drained.
func TestTracedSubmitCloseStress(t *testing.T) {
	iters := 20
	if testing.Short() {
		iters = 4
	}
	for it := 0; it < iters; it++ {
		workers := 1 + it%5
		p := New(workers)
		ob := obs.NewObserver(workers, 128)
		p.SetObserver(ob)

		var accepted, ran atomic.Int64
		task := func() { ran.Add(1) }
		stop := make(chan struct{})

		// Readers: one snapshotting the event log, one scraping the
		// registry, both racing the emitting workers.
		var rwg sync.WaitGroup
		rwg.Add(2)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, e := range ob.Tracer.Snapshot() {
						if e.Kind != obs.EvLocalHit && e.Kind != obs.EvTaskFinish {
							t.Errorf("iter %d: unexpected kind %v in scheduler-only trace", it, e.Kind)
							return
						}
					}
				}
			}
		}()
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = ob.Reg.Text()
				}
			}
		}()

		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; ; k++ {
					if k%4 == 3 {
						batch := make([]Task, 1+k%5)
						for i := range batch {
							batch[i] = task
						}
						n, err := p.SubmitBatch(batch)
						accepted.Add(int64(n))
						if err != nil {
							return
						}
					} else {
						if p.Submit(task) != nil {
							return
						}
						accepted.Add(1)
					}
				}
			}()
		}
		time.Sleep(time.Duration(it%4) * 100 * time.Microsecond)
		p.Close()
		wg.Wait()
		close(stop)
		rwg.Wait()

		if ran.Load() != accepted.Load() {
			t.Fatalf("iter %d: accepted %d but %d ran", it, accepted.Load(), ran.Load())
		}
		m := p.Metrics()
		counts := ob.Counts()
		if got := counts[obs.EvLocalHit]; got != m.Executed {
			t.Fatalf("iter %d: observer dispatches %d, pool executed %d", it, got, m.Executed)
		}
		if got := counts[obs.EvTaskFinish]; got != m.Executed {
			t.Fatalf("iter %d: observer tasks done %d, pool executed %d", it, got, m.Executed)
		}
	}
}
