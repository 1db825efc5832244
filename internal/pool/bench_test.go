package pool

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

var workerCounts = []int{1, 2, 4, 8}

// BenchmarkSubmit measures contended submission: GOMAXPROCS submitters
// pushing no-op tasks as fast as the pool accepts them.
func BenchmarkSubmit(b *testing.B) {
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			p := New(w)
			var done sync.WaitGroup
			done.Add(b.N)
			task := func() { done.Done() }
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := p.Submit(task); err != nil {
						b.Error(err)
						return
					}
				}
			})
			done.Wait()
			b.StopTimer()
			p.Close()
		})
	}
}

// spin is a tiny compute kernel standing in for one group invocation.
func spin(n int) float64 {
	s := 1.0
	for i := 0; i < n; i++ {
		s += 1.0 / s
	}
	return s
}

var spinSink atomic.Int64

// BenchmarkGroupFanout measures the engine-shaped pattern: hand the pool a
// batch, wait for it to drain, repeat. A batch of 1 is an aux run's lane
// task at two lanes, 2 a two-chunk reservations wave, 32 a wide fan-out.
func BenchmarkGroupFanout(b *testing.B) {
	for _, size := range []int{1, 2, 32} {
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("batch=%d/w=%d", size, w), func(b *testing.B) {
				p := New(w)
				var wg sync.WaitGroup
				tasks := make([]Task, size)
				for i := range tasks {
					tasks[i] = func() {
						spinSink.Store(int64(spin(200)))
						wg.Done()
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					wg.Add(size)
					if _, err := p.SubmitBatch(tasks); err != nil {
						b.Fatal(err)
					}
					wg.Wait()
				}
				b.StopTimer()
				p.Close()
			})
		}
	}
}
