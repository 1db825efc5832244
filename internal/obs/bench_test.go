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

// BenchmarkNoteEnabled is the enabled report path: the kind's counter plus
// the event.
func BenchmarkNoteEnabled(b *testing.B) {
	o := NewObserver(4, 1<<12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Note(0, EvGroupStart, 0, int64(i))
	}
}

// BenchmarkEmitEnabled is the enabled-path cost: a timestamp read plus a
// handful of atomic stores into the lane's ring.
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
