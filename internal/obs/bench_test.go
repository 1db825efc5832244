package obs

import "testing"

// BenchmarkEmitDisabled measures the engine's per-event cost with tracing
// off: a nil-receiver check and return. The acceptance budget is <5 ns/op
// — the "disabled tracing costs ~one branch" contract internal/core's
// per-group hot path relies on.
func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(0, EvGroupStart, 0, 0)
	}
}

// BenchmarkObserverDisabledGroupPath measures the per-group report sequence
// the engine executes when observability is off: a group's start and
// finish Notes on a nil Observer, one inlined nil check each.
func BenchmarkObserverDisabledGroupPath(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Note(0, EvGroupStart, 0, 0)
		o.Note(0, EvGroupFinish, 0, 0)
	}
}

// BenchmarkNoteEnabled is the enabled report path of a caller without a
// reading: a clock read, the kind's counter and the event.
func BenchmarkNoteEnabled(b *testing.B) {
	o := NewObserver(4, 1<<12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Note(0, EvGroupStart, 0, int64(i))
	}
}

// BenchmarkNoteAt is the engine's report path: the caller already holds the
// lane's reading, so the record is the counter, the ticket and four stores.
// The bar is 40 ns where BenchmarkNoteEnabled, which reads the clock, takes
// 66.
func BenchmarkNoteAt(b *testing.B) {
	o := NewObserver(4, 1<<12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.NoteAt(0, int64(i), EvGroupStart, 0, int64(i))
	}
}

// BenchmarkEmitEnabled is the enabled-path cost: a timestamp read, the
// ticket claim and four atomic stores into the lane's ring.
func BenchmarkEmitEnabled(b *testing.B) {
	tr := NewTracer(4, 1<<12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(0, EvGroupStart, 0, int64(i))
	}
}

// BenchmarkHistogramObserve is the enabled metrics hot path.
func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
