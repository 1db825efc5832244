// Package recycle parks idle scratch — the engine's per-run working set, a
// kernel's per-call buffers — between uses in a free list whose first slots
// garbage collection does not empty. A sync.Pool alone drops what it holds at
// every second collection, so a warm caller turns cold at a random point and
// what a run allocates depends on when the collector ran.
package recycle

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minSlots is the fewest slots a List has: enough that a few overlapping
// callers on a machine with few processors keep their scratch.
const minSlots = 8

// List holds parked *T values. Its slots, max(8, GOMAXPROCS) of them read
// when the list is built, keep what they hold through any number of garbage
// collections: as many callers as the machine runs at once stay warm. A value
// put while every slot is taken overflows into a sync.Pool, so callers that
// overlap more widely (more lanes than processors, each descheduled
// mid-call) still recycle their scratch between collections, and the
// collector takes that overflow back. What a List retains for good is at
// most Slots() values, each as large as the largest job that used it, until
// Drain lets them go. A List is safe for concurrent use.
type List[T any] struct {
	slots    []atomic.Pointer[T]
	overflow sync.Pool
}

// New returns an empty List.
func New[T any]() *List[T] {
	return &List[T]{slots: make([]atomic.Pointer[T], max(minSlots, runtime.GOMAXPROCS(0)))}
}

// Get takes a parked value, or returns nil when none is parked.
func (l *List[T]) Get() *T {
	for i := range l.slots {
		if l.slots[i].Load() != nil {
			if v := l.slots[i].Swap(nil); v != nil {
				return v
			}
		}
	}
	v, _ := l.overflow.Get().(*T)
	return v
}

// Put parks v in a free slot, or in the overflow when every slot is taken.
// The caller must clear whatever v should not keep alive while parked.
func (l *List[T]) Put(v *T) {
	for i := range l.slots {
		if l.slots[i].Load() == nil && l.slots[i].CompareAndSwap(nil, v) {
			return
		}
	}
	l.overflow.Put(v)
}

// Drain drops every parked value, so the next Get builds afresh.
func (l *List[T]) Drain() {
	for i := range l.slots {
		l.slots[i].Store(nil)
	}
	for l.overflow.Get() != nil {
	}
}

// Slots is the most values the list keeps through a garbage collection.
func (l *List[T]) Slots() int { return len(l.slots) }
