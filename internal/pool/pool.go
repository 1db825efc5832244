// Package pool implements the STATS runtime's shared worker scheduler (§3.4,
// "Runtime"): "an efficient thread pool implementation (shared with all state
// dependences) to minimize thread creation overhead".
//
// A set of workers takes tasks from one bounded FIFO queue, a buffered
// channel. Which worker takes a task is whichever is free: the engine hands
// the pool at most Workers − 1 lane tasks per aux run (the caller is lane 0)
// and one task per chunk of a reservations wave, so the queue rarely holds
// more than one task per worker and there is nothing to balance. A full
// queue blocks the submitter until a worker frees a slot.
//
// Every queued task carries the observer of the run that submitted it, so
// runs sharing a pool each see their own dispatches and queue depths. The
// process pool (Process) is the one a run given no pool leases: it starts
// on first use and grows to the widest run. New builds a pool of a fixed
// width, so the evaluation harness can constrain the number of "hardware
// threads" available to the runtime, mirroring the paper's thread sweeps.
// Dispatch counters (submitted, executed, panicked, peak queue depth) are
// exposed through Metrics.
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

// entry is one queued task, the observer of the submitter it runs for, and
// the submitter's wait group, marked done once the task is accounted.
type entry struct {
	t    Task
	o    *obs.Observer
	done *sync.WaitGroup
}

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

// Pool is a worker pool over one bounded FIFO queue. The zero value is not
// usable; call New, or take the process pool from Process.
type Pool struct {
	tasks   chan entry
	workers atomic.Int32

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

	// obsv is the observer Submit and SubmitBatch queue their tasks for
	// (see Dispatch); nil reports nowhere.
	obsv atomic.Pointer[obs.Observer]
}

// New returns a running pool with the given number of workers. A
// non-positive width is treated as 1.
func New(workers int) *Pool {
	workers = max(workers, 1)
	p := &Pool{
		tasks: make(chan entry, queuePerWorker*workers),
		quit:  make(chan struct{}),
	}
	p.grow(workers)
	return p
}

// process is the pool Process hands out; mu serializes its start and growth.
var process struct {
	mu sync.Mutex
	p  *Pool
}

// Process returns the process pool at least width workers wide — the one
// pool "shared with all state dependences, to minimize thread creation
// overhead" (§3.4) for every run given no pool of its own. It starts on first
// use and grows to the widest width asked for; it never shrinks and is never
// closed, and its idle workers park on the queue. Its queue keeps the
// capacity of its first width: a wider pool drains it faster. A task that
// waits for another task of this pool to start can wait forever once every
// worker is held by such a task.
func Process(width int) *Pool {
	process.mu.Lock()
	defer process.mu.Unlock()
	if process.p == nil {
		process.p = New(width)
	}
	process.p.grow(width)
	return process.p
}

// grow starts workers until p is width wide; it never stops one. Close must
// not run concurrently with it: New and Process call it, and the process
// pool is never closed.
func (p *Pool) grow(width int) {
	for w := int(p.workers.Load()); w < width; w++ {
		p.wg.Add(1)
		go p.worker(w)
		p.workers.Store(int32(w + 1))
	}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return int(p.workers.Load()) }

// SetObserver attaches (or, with nil, detaches) the observability sink of
// Submit and SubmitBatch: every task they accept afterwards observes the
// resulting queue depth, and its dispatch and finish emit events on the
// executing worker's lane. Safe to call concurrently with running work.
func (p *Pool) SetObserver(o *obs.Observer) { p.obsv.Store(o) }

// Metrics returns a snapshot of the scheduler's dispatch counters.
func (p *Pool) Metrics() Metrics {
	return Metrics{
		Submitted:      p.submitted.Load(),
		Executed:       p.executed.Load(),
		PanickedTasks:  p.panickedTasks.Load(),
		QueueDepthPeak: p.maxDepth.Load(),
	}
}

// Submit enqueues t for execution. It blocks while the queue is full and
// returns ErrClosed if the pool has been closed. A nil error guarantees the
// task will be executed.
func (p *Pool) Submit(t Task) error {
	_, err := p.SubmitBatch([]Task{t})
	return err
}

// SubmitBatch enqueues tasks in order, for the pool's own observer (see
// SetObserver and Dispatch) and no wait group. It returns the number of
// tasks enqueued, which is len(tasks) unless the pool is closed: on ErrClosed
// the suffix tasks[n:] was not enqueued and is the caller's to run. Enqueued
// tasks are always executed. SubmitBatch blocks while the queue is full.
func (p *Pool) SubmitBatch(tasks []Task) (int, error) {
	n, _, err := p.Dispatch(p.obsv.Load(), nil, tasks)
	return n, err
}

// Dispatch is SubmitBatch for a submitter with an observer and a wait of
// its own — internal/core submits an aux run's lane tasks and a reservations
// wave's chunks here, for the run's observer, so that runs sharing a pool
// each see their own. It enqueues tasks in order under one read lock, with
// SubmitBatch's contract for n and err. o, when non-nil, observes the queue
// depth each accepted task meets, and each task's dispatch and finish emit
// events on the executing worker's lane. done, when non-nil, is marked done
// once per accepted task after its finish is accounted, so a submitter that
// waits on it reads every event and counter of its tasks; the caller adds to
// it beforehand. peak is the deepest queue an accepted task met, the task
// itself counted (0 when none was accepted).
func (p *Pool) Dispatch(o *obs.Observer, done *sync.WaitGroup, tasks []Task) (n int, peak int64, err error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed && len(tasks) > 0 {
		return 0, 0, ErrClosed
	}
	for n, t := range tasks {
		e := entry{t, o, done}
		depth := p.queued.Add(1)
		select {
		case p.tasks <- e:
		default: // full: wait for a slot, or for Close
			select {
			case p.tasks <- e:
			case <-p.quit:
				p.queued.Add(-1)
				return n, peak, ErrClosed
			}
		}
		p.submitted.Add(1)
		p.noteDepth(o, depth)
		peak = max(peak, depth)
	}
	return len(tasks), peak, nil
}

// noteDepth folds a queue depth into the lifetime peak and, when the
// submitter has an observer, into its queue-depth histogram and peak.
func (p *Pool) noteDepth(o *obs.Observer, d int64) {
	for {
		old := p.maxDepth.Load()
		if d <= old || p.maxDepth.CompareAndSwap(old, d) {
			break
		}
	}
	if o != nil {
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
		var e entry
		var ok bool
		select {
		case e, ok = <-p.tasks:
		default:
			at = 0 // parked: the next dispatch reads the clock afresh
			e, ok = <-p.tasks
		}
		if !ok {
			return
		}
		p.queued.Add(-1)
		at = p.run(i, e, at)
	}
}

// run executes one dispatched task on worker i, accounts it and marks it
// done. When its submitter has an observer, the dispatch emits a dispatch
// event and the completion a task-finish event to it, both on the worker's
// lane — the pairs the live Gantt view turns into per-worker occupancy
// spans. at is the reading that
// stamped the worker's previous task-finish when this dispatch follows it
// without a park (0 otherwise): one clock read serves both events, and run
// returns the reading of its own finish (0 unobserved) for the next.
//
// A panicking task must not kill its worker: an escaped panic would tear
// down the process, and even a hypothetically survivable one would shrink
// the pool. run recovers, counts the event in Metrics.PanickedTasks, and
// keeps the worker in its dispatch loop.
func (p *Pool) run(i int, e entry, at int64) int64 {
	o := e.o
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
		e.t()
	}()
	p.executed.Add(1)
	at = 0
	if o != nil {
		at = obs.Now()
		o.NoteAt(i, at, obs.EvTaskFinish, -1, 0)
	}
	if e.done != nil {
		e.done.Done()
	}
	return at
}
