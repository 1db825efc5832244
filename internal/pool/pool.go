// Package pool implements the STATS runtime's shared worker scheduler (§3.4,
// "Runtime"): "an efficient thread pool implementation (shared with all state
// dependences) to minimize thread creation overhead".
//
// A fixed set of workers takes tasks from one bounded FIFO queue, a buffered
// channel. Which worker takes a task is whichever is free: the engine hands
// the pool at most Workers − 1 lane tasks per aux run (the caller is lane 0)
// and one task per chunk of a reservations wave, so the queue rarely holds
// more than one task per worker and there is nothing to balance. A full
// queue blocks the submitter until a worker frees a slot.
//
// The pool supports bounded width so the evaluation harness can constrain
// the number of "hardware threads" available to the runtime, mirroring the
// paper's thread sweeps. Dispatch counters (submitted, executed, panicked,
// peak queue depth) are exposed through Metrics.
package pool

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrClosed is returned by Submit and SubmitBatch after Close has been
// called.
var ErrClosed = errors.New("pool: closed")

// Task is a unit of work executed by a pool worker.
type Task func()

// queuePerWorker sizes the queue: a pool of w workers holds up to
// queuePerWorker·w queued tasks before a submitter blocks. That is far more
// than the engine queues (one task per lane beyond the caller's, one per
// wave chunk), so only a caller flooding the pool with tasks of its own
// meets the backpressure.
const queuePerWorker = 64

// Metrics is a snapshot of the scheduler's dispatch counters.
type Metrics struct {
	// Submitted counts tasks accepted by Submit and SubmitBatch.
	Submitted int64
	// Executed counts completed tasks.
	Executed int64
	// PanickedTasks counts tasks whose panic was recovered by the worker.
	// The worker survives and keeps dispatching; the task's submitter is
	// responsible for noticing the lost result (internal/core marks the
	// group failed before its panic reaches the scheduler).
	PanickedTasks int64
	// QueueDepthPeak is the highest queue depth observed over the pool's
	// lifetime, counting the task just accepted.
	QueueDepthPeak int64
}

// Pool is a fixed-width worker pool over one bounded FIFO queue. The zero
// value is not usable; call New.
type Pool struct {
	tasks   chan Task
	workers int

	// mu is the close barrier: submitters send under the read lock, and
	// Close takes the write lock before it closes tasks, so no send can
	// meet a closed channel. quit, closed first, releases submitters
	// blocked on a full queue so that Close can take the lock.
	mu     sync.RWMutex
	closed bool
	quit   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	// queued counts accepted tasks no worker has taken yet: the queue
	// depth, including a task handed straight to a waiting worker.
	queued        atomic.Int64
	submitted     atomic.Int64
	executed      atomic.Int64
	panickedTasks atomic.Int64
	maxDepth      atomic.Int64

	// obsv, when set, receives per-dispatch trace events (dispatch and
	// task-finish on the worker's lane) and queue-depth metrics. Loaded
	// once per dispatch; nil costs one atomic load and a branch.
	obsv atomic.Pointer[obs.Observer]
}

// New returns a running pool with the given number of workers. A
// non-positive width is treated as 1.
func New(workers int) *Pool {
	workers = max(workers, 1)
	p := &Pool{
		tasks:   make(chan Task, queuePerWorker*workers),
		workers: workers,
		quit:    make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// SetObserver attaches (or, with nil, detaches) the observability sink:
// every subsequent dispatch emits a dispatch event and a task-finish event
// on the executing worker's lane, and every accepted task observes the
// resulting queue depth. Safe to call concurrently with running work.
func (p *Pool) SetObserver(o *obs.Observer) { p.obsv.Store(o) }

// Metrics returns a snapshot of the scheduler's dispatch counters.
func (p *Pool) Metrics() Metrics {
	return Metrics{
		Submitted:      p.submitted.Load(),
		Executed:       p.executed.Load(),
		PanickedTasks:  p.panickedTasks.Load(),
		QueueDepthPeak: p.QueueDepthPeak(),
	}
}

// QueueDepthPeak returns the queue's lifetime peak depth.
func (p *Pool) QueueDepthPeak() int64 { return p.maxDepth.Load() }

// Submit enqueues t for execution. It blocks while the queue is full and
// returns ErrClosed if the pool has been closed. A nil error guarantees the
// task will be executed.
func (p *Pool) Submit(t Task) error {
	_, err := p.SubmitBatch([]Task{t})
	return err
}

// SubmitBatch enqueues tasks in order under one read lock — internal/core
// uses it for an aux run's lane tasks and for the chunks of a reservations
// wave. It returns the number of tasks enqueued, which is len(tasks) unless
// the pool is closed: on ErrClosed the suffix tasks[n:] was not enqueued and
// is the caller's to run. Enqueued tasks are always executed. SubmitBatch
// blocks while the queue is full.
func (p *Pool) SubmitBatch(tasks []Task) (int, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed && len(tasks) > 0 {
		return 0, ErrClosed
	}
	for n, t := range tasks {
		depth := p.queued.Add(1)
		select {
		case p.tasks <- t:
		default: // full: wait for a slot, or for Close
			select {
			case p.tasks <- t:
			case <-p.quit:
				p.queued.Add(-1)
				return n, ErrClosed
			}
		}
		p.submitted.Add(1)
		p.noteDepth(depth)
	}
	return len(tasks), nil
}

// noteDepth folds a queue depth into the lifetime peak and, when an
// observer is attached, into its queue-depth histogram.
func (p *Pool) noteDepth(d int64) {
	for {
		old := p.maxDepth.Load()
		if d <= old || p.maxDepth.CompareAndSwap(old, d) {
			break
		}
	}
	if o := p.obsv.Load(); o != nil {
		o.QueueDepth.Observe(d)
		o.QueueDepthPeak.SetMax(d)
	}
}

// Close stops accepting tasks, waits for queued tasks to finish, and
// releases the workers. Close is idempotent. Submissions that were
// accepted before Close are guaranteed to execute before Close returns.
func (p *Pool) Close() {
	p.once.Do(func() {
		close(p.quit)
		p.mu.Lock()
		p.closed = true
		close(p.tasks)
		p.mu.Unlock()
		p.wg.Wait()
	})
}

// worker is the dispatch loop for worker i: take the next task, or park on
// the queue until one arrives; exit once the queue is closed and drained.
func (p *Pool) worker(i int) {
	defer p.wg.Done()
	var at int64 // the previous task's finish reading; 0 once the worker parked
	for {
		var t Task
		var ok bool
		select {
		case t, ok = <-p.tasks:
		default:
			at = 0 // parked: the next dispatch reads the clock afresh
			t, ok = <-p.tasks
		}
		if !ok {
			return
		}
		p.queued.Add(-1)
		at = p.run(i, t, at)
	}
}

// run executes one dispatched task on worker i and accounts it. With an
// observer attached, the dispatch emits a dispatch event and the completion
// a task-finish event, both on the worker's lane — the pairs the live Gantt
// view turns into per-worker occupancy spans. at is the reading that
// stamped the worker's previous task-finish when this dispatch follows it
// without a park (0 otherwise): one clock read serves both events, and run
// returns the reading of its own finish (0 unobserved) for the next.
//
// A panicking task must not kill its worker: an escaped panic would tear
// down the process, and even a hypothetically survivable one would shrink
// the pool. run recovers, counts the event in Metrics.PanickedTasks, and
// keeps the worker in its dispatch loop.
func (p *Pool) run(i int, t Task, at int64) int64 {
	o := p.obsv.Load()
	if o != nil && at == 0 {
		at = obs.Now()
	}
	o.NoteAt(i, at, obs.EvLocalHit, -1, 0)
	func() {
		defer func() {
			if r := recover(); r != nil {
				p.panickedTasks.Add(1)
			}
		}()
		t()
	}()
	p.executed.Add(1)
	if o == nil {
		return 0
	}
	at = obs.Now()
	o.NoteAt(i, at, obs.EvTaskFinish, -1, 0)
	return at
}
