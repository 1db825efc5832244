// Package pool implements the STATS runtime's shared worker scheduler (§3.4,
// "Runtime"): "an efficient thread pool implementation (shared with all state
// dependences) to minimize thread creation overhead".
//
// The scheduler is sharded: every worker owns a bounded local deque, and a
// task submitted to the pool is pushed onto one deque chosen by an atomic
// round-robin cursor, so concurrent submitters from different attached
// dependences spread across shards instead of contending on a single lock
// and channel. A worker dispatches from the front of its own deque (the
// local fast path); when its deque is empty it steals from the back of a
// randomly chosen victim's deque, which keeps every worker busy while a
// burst of submissions lands on few shards. SubmitBatch enqueues several
// tasks in one pass — one lock acquisition per shard touched rather than one
// per task — which is how internal/core hands a run's tasks over: at most
// Workers − 1 lane tasks per aux run (the caller is lane 0), one task per
// chunk of a reservations wave.
//
// The pool supports bounded width so the evaluation harness can constrain
// the number of "hardware threads" available to the runtime, mirroring the
// paper's thread sweeps. Dispatch counters (steals, local hits, peak queue
// depth) are exposed through Metrics for overhead attribution by the
// profiler and harness.
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

// shardCap bounds each worker's local deque. A full deque spills the
// submission to the other shards, and a fully saturated pool blocks the
// submitter until a worker frees capacity — the same backpressure the old
// single-channel pool applied, now per shard.
const shardCap = 64

// shard is one worker's bounded local deque: a fixed ring buffer guarded by
// a mutex. The owner pops from the front (oldest first, preserving rough
// global FIFO under round-robin submission); thieves steal from the back,
// so a steal rarely collides with the owner's next dispatch.
type shard struct {
	mu   sync.Mutex
	buf  [shardCap]Task
	head int // index of the oldest task
	size int // number of queued tasks
}

// tryPush appends t to the deque tail. It reports whether the task was
// enqueued, the resulting depth, and whether the pool was observed closed.
// Both the closed check and the pending increment happen under the shard
// lock: a successful push (and its pending count) therefore strictly
// precedes Close's shard barrier, so the workers' final drain can neither
// miss the task nor observe a stale zero pending count.
func (s *shard) tryPush(t Task, closed *atomic.Bool, pending *atomic.Int64) (pushed bool, depth int, poolClosed bool) {
	s.mu.Lock()
	if closed.Load() {
		s.mu.Unlock()
		return false, 0, true
	}
	if s.size == shardCap {
		s.mu.Unlock()
		return false, 0, false
	}
	s.buf[(s.head+s.size)%shardCap] = t
	s.size++
	pending.Add(1)
	depth = s.size
	s.mu.Unlock()
	return true, depth, false
}

// pushMany appends up to max tasks from ts under a single lock acquisition,
// returning how many were enqueued, the resulting depth, and whether the
// pool was observed closed. The same under-lock ordering rules as tryPush
// apply.
func (s *shard) pushMany(ts []Task, max int, closed *atomic.Bool, pending *atomic.Int64) (n, depth int, poolClosed bool) {
	s.mu.Lock()
	if closed.Load() {
		s.mu.Unlock()
		return 0, 0, true
	}
	for n < len(ts) && n < max && s.size < shardCap {
		s.buf[(s.head+s.size)%shardCap] = ts[n]
		s.size++
		n++
	}
	if n > 0 {
		pending.Add(int64(n))
	}
	depth = s.size
	s.mu.Unlock()
	return n, depth, false
}

// popFront removes the oldest task (owner dispatch). wasFull reports
// whether the deque was at capacity before the pop, so the caller can wake
// a submitter blocked on backpressure.
func (s *shard) popFront() (t Task, wasFull bool) {
	s.mu.Lock()
	if s.size == 0 {
		s.mu.Unlock()
		return nil, false
	}
	wasFull = s.size == shardCap
	t = s.buf[s.head]
	s.buf[s.head] = nil
	s.head = (s.head + 1) % shardCap
	s.size--
	s.mu.Unlock()
	return t, wasFull
}

// popBack removes the newest task (thief dispatch).
func (s *shard) popBack() (t Task, wasFull bool) {
	s.mu.Lock()
	if s.size == 0 {
		s.mu.Unlock()
		return nil, false
	}
	wasFull = s.size == shardCap
	i := (s.head + s.size - 1) % shardCap
	t = s.buf[i]
	s.buf[i] = nil
	s.size--
	s.mu.Unlock()
	return t, wasFull
}

// depth returns the instantaneous queue depth.
func (s *shard) depth() int {
	s.mu.Lock()
	d := s.size
	s.mu.Unlock()
	return d
}

// Metrics is a snapshot of the scheduler's dispatch counters, used by the
// profiler and harness to attribute runtime overhead (a steal is a
// cross-worker dispatch; a local hit is the contention-free fast path).
type Metrics struct {
	// Submitted counts tasks accepted by Submit and SubmitBatch.
	Submitted int64
	// Executed counts completed tasks.
	Executed int64
	// Steals counts tasks a worker took from another worker's deque.
	Steals int64
	// LocalHits counts tasks a worker took from its own deque.
	LocalHits int64
	// PanickedTasks counts tasks whose panic was recovered by the worker.
	// The worker survives and keeps dispatching; the task's submitter is
	// responsible for noticing the lost result (internal/core marks the
	// group failed before its panic reaches the scheduler).
	PanickedTasks int64
	// QueueDepthPeak is the highest single-deque depth observed over the
	// pool's lifetime.
	QueueDepthPeak int64
}

// Pool is a fixed-width sharded work-stealing worker pool. The zero value
// is not usable; call New.
type Pool struct {
	shards  []*shard
	workers int
	rr      atomic.Uint64 // round-robin submission cursor
	closed  atomic.Bool

	// notify wakes parked workers on task arrival; its capacity equals the
	// worker count, so a dropped (non-blocking) signal implies every worker
	// already has a pending wakeup and will re-sweep all shards.
	notify chan struct{}
	// space wakes submitters blocked on a fully saturated pool; workers
	// signal it after popping from a deque that was at capacity.
	space chan struct{}
	// done is closed by Close after every shard has been marked closed;
	// workers then drain all deques and exit, and blocked submitters give
	// up with ErrClosed.
	done chan struct{}
	wg   sync.WaitGroup

	// pending counts queued-but-undispatched tasks across all deques; a
	// worker with an empty local deque parks without sweeping victims
	// when it reads zero, so an idle pool costs no lock traffic.
	pending atomic.Int64
	// idlers counts parked (or parking) workers; submitters skip the
	// wakeup channel entirely while it reads zero. The
	// pending-then-idlers / idlers-then-pending ordering on the two sides
	// is a Dekker handshake: at least one side always observes the other,
	// so no wakeup is lost.
	idlers atomic.Int64

	submitted     atomic.Int64
	executed      atomic.Int64
	steals        atomic.Int64
	localHits     atomic.Int64
	panickedTasks atomic.Int64
	maxDepth      atomic.Int64

	// obsv, when set, receives per-dispatch trace events (steal,
	// local-hit, task-finish on the worker's lane) and queue-depth
	// metrics. Loaded once per dispatch; nil costs one atomic load and
	// a branch.
	obsv atomic.Pointer[obs.Observer]
}

// New returns a running pool with the given number of workers. A
// non-positive width is treated as 1.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		shards:  make([]*shard, workers),
		workers: workers,
		notify:  make(chan struct{}, workers),
		space:   make(chan struct{}, workers),
		done:    make(chan struct{}),
	}
	for i := range p.shards {
		p.shards[i] = &shard{}
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
// every subsequent dispatch emits a steal/local-hit event and a
// task-finish event on the executing worker's lane, and every push
// observes the resulting deque depth. Safe to call concurrently with
// running work.
func (p *Pool) SetObserver(o *obs.Observer) { p.obsv.Store(o) }

// Executed returns the number of tasks completed so far.
func (p *Pool) Executed() int64 { return p.executed.Load() }

// Metrics returns a snapshot of the scheduler's dispatch counters.
func (p *Pool) Metrics() Metrics {
	return Metrics{
		Submitted:      p.submitted.Load(),
		Executed:       p.executed.Load(),
		Steals:         p.steals.Load(),
		LocalHits:      p.localHits.Load(),
		PanickedTasks:  p.panickedTasks.Load(),
		QueueDepthPeak: p.maxDepth.Load(),
	}
}

// QueueDepths returns the instantaneous depth of every worker's deque.
func (p *Pool) QueueDepths() []int {
	out := make([]int, len(p.shards))
	for i, s := range p.shards {
		out[i] = s.depth()
	}
	return out
}

// noteDepth folds a post-push depth into the lifetime peak gauge and, when
// an observer is attached, into its queue-depth histogram.
func (p *Pool) noteDepth(depth int) {
	d := int64(depth)
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

// wake signals up to n parked workers without blocking. The caller must
// have made the new work visible (pending incremented) first; the idlers
// gate then keeps the busy-pool fast path free of channel operations.
func (p *Pool) wake(n int) {
	if p.idlers.Load() == 0 {
		return
	}
	for i := 0; i < n; i++ {
		select {
		case p.notify <- struct{}{}:
		default:
			return
		}
	}
}

// signalSpace wakes one submitter blocked on a saturated pool.
func (p *Pool) signalSpace() {
	select {
	case p.space <- struct{}{}:
	default:
	}
}

// Submit enqueues t for execution. The fast path is one atomic cursor
// bump plus one shard push; a full shard spills to its neighbours. Submit
// blocks while every deque is at capacity and returns ErrClosed if the pool
// has been closed. A nil error guarantees the task will be executed.
func (p *Pool) Submit(t Task) error {
	h := p.rr.Add(1)
	n := uint64(len(p.shards))
	for {
		for i := uint64(0); i < n; i++ {
			pushed, depth, closed := p.shards[(h+i)%n].tryPush(t, &p.closed, &p.pending)
			if closed {
				return ErrClosed
			}
			if pushed {
				p.submitted.Add(1)
				p.noteDepth(depth)
				p.wake(1)
				return nil
			}
		}
		// Every deque is at capacity: wait for a worker to free space.
		select {
		case <-p.space:
		case <-p.done:
			return ErrClosed
		}
	}
}

// SubmitBatch enqueues a batch of tasks — internal/core uses it for an aux
// run's lane tasks and for the chunks of a reservations wave. Tasks are
// spread across the shards in near-even chunks with one lock acquisition
// per shard touched, instead of len(tasks) serialized Submit calls. It
// returns the number of tasks enqueued, which is len(tasks) unless the pool
// is closed: on ErrClosed the suffix tasks[n:] was not enqueued and is the
// caller's to run. Enqueued tasks are always executed. SubmitBatch blocks
// while the pool is saturated.
func (p *Pool) SubmitBatch(tasks []Task) (int, error) {
	if len(tasks) == 0 {
		return 0, nil
	}
	h := p.rr.Add(uint64(len(tasks)))
	ns := uint64(len(p.shards))
	enq := 0
	for enq < len(tasks) {
		remaining := len(tasks) - enq
		// Near-even quota per shard this sweep, so a batch lands spread
		// across the workers' local deques.
		quota := (remaining + int(ns) - 1) / int(ns)
		pushedThisSweep := 0
		for i := uint64(0); i < ns && enq < len(tasks); i++ {
			s := p.shards[(h+i)%ns]
			k, depth, closed := s.pushMany(tasks[enq:], quota, &p.closed, &p.pending)
			if closed {
				// Nothing to flush: earlier pushes of this sweep are already
				// counted, and Close wakes every parked worker to drain them.
				return enq, ErrClosed
			}
			if k > 0 {
				// Count the push where it happens, so no early return can
				// leave executed tasks out of Submitted.
				p.submitted.Add(int64(k))
				enq += k
				pushedThisSweep += k
				p.noteDepth(depth)
			}
		}
		if pushedThisSweep > 0 {
			p.wake(pushedThisSweep)
		}
		if enq < len(tasks) && pushedThisSweep == 0 {
			select {
			case <-p.space:
			case <-p.done:
				return enq, ErrClosed
			}
		}
	}
	return enq, nil
}

// Close stops accepting tasks, waits for queued tasks to finish, and
// releases the workers. Close is idempotent. Submissions that were
// accepted before Close are guaranteed to execute before Close returns.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	// Barrier: acquiring every shard's lock after setting closed
	// guarantees any push that observed the pool open has fully landed in
	// its deque, so the workers' final drain cannot miss it.
	for _, s := range p.shards {
		s.mu.Lock()
		s.mu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	}
	close(p.done)
	p.wg.Wait()
}

// xorshift is a cheap per-worker PRNG for randomized victim selection.
func xorshift(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// worker is the dispatch loop for worker i: local pop, then randomized
// steal sweep, then park until new work arrives or the pool closes.
func (p *Pool) worker(i int) {
	defer p.wg.Done()
	// The victim-selection PRNG is seeded from the worker's index: odd
	// constant times i+1, never zero (a zero state wedges xorshift).
	seed := (uint64(i) + 1) * 0x9E3779B97F4A7C15
	var at int64 // the previous task's finish reading; 0 once the worker parked
	for {
		if t, stolen, ok := p.next(i, &seed); ok {
			at = p.run(i, t, stolen, at)
			continue
		}
		at = 0
		// Park. Declaring idleness before re-checking pending pairs with
		// the submitters' publish-then-check-idlers order, so a task
		// enqueued concurrently is either seen here or wakes us.
		p.idlers.Add(1)
		if p.pending.Load() > 0 {
			p.idlers.Add(-1)
			continue
		}
		select {
		case <-p.notify:
			p.idlers.Add(-1)
		case <-p.done:
			p.idlers.Add(-1)
			// Drain: every task accepted before Close is in some deque
			// by now (Close's shard barrier); sweep until empty.
			for {
				t, stolen, ok := p.next(i, &seed)
				if !ok {
					return
				}
				p.run(i, t, stolen, 0)
			}
		}
	}
}

// run executes one dispatched task on worker i and accounts it. With an
// observer attached, the dispatch emits a steal/local-hit event and the
// completion a task-finish event, all on the worker's lane — the pairs the
// live Gantt view turns into per-worker occupancy spans. at is the reading
// that stamped the worker's previous task-finish when this dispatch follows
// it without a park (0 otherwise): one clock read serves both events, and
// run returns the reading of its own finish (0 unobserved) for the next.
//
// A panicking task must not kill its worker: an escaped panic would tear
// down the process, and even a hypothetically survivable one would shrink
// the pool and wedge Close behind the dead worker's deque. run recovers,
// counts the event in Metrics.PanickedTasks, and keeps the worker in its
// dispatch loop.
func (p *Pool) run(i int, t Task, stolen bool, at int64) int64 {
	o := p.obsv.Load()
	if o != nil && at == 0 {
		at = obs.Now()
	}
	if stolen {
		p.steals.Add(1)
		o.NoteAt(i, at, obs.EvSteal, -1, 0)
	} else {
		p.localHits.Add(1)
		o.NoteAt(i, at, obs.EvLocalHit, -1, 0)
	}
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

// next dispatches one task for worker i: the front of its own deque, or a
// steal from the back of another worker's, scanning victims from a random
// starting point so thieves spread out. Which worker runs a task is never
// a scheduling decision of the engine's: its lanes take their work from the
// run, not from the deque that held the task.
func (p *Pool) next(i int, seed *uint64) (t Task, stolen, ok bool) {
	if t, wasFull := p.shards[i].popFront(); t != nil {
		p.pending.Add(-1)
		if wasFull {
			p.signalSpace()
		}
		return t, false, true
	}
	// Nothing local: only pay for a victim sweep if some deque has work.
	if len(p.shards) == 1 || p.pending.Load() == 0 {
		return nil, false, false
	}
	off := int(xorshift(seed) % uint64(len(p.shards)))
	if t, wasFull := p.sweep(i, off); t != nil {
		p.pending.Add(-1)
		if wasFull {
			p.signalSpace()
		}
		return t, true, true
	}
	return nil, false, false
}

// sweep scans every shard but i for a stealable task, starting at off.
func (p *Pool) sweep(i, off int) (t Task, wasFull bool) {
	n := len(p.shards)
	for k := 0; k < n; k++ {
		j := (off + k) % n
		if j == i {
			continue
		}
		if t, wasFull := p.shards[j].popBack(); t != nil {
			return t, wasFull
		}
	}
	return nil, false
}
