package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// span is one traced interval at a layer boundary. Spans of one call share
// Run; Parent is the index (in the written file) of the span that caused
// this one, -1 for a call's root. Times are nanoseconds since the
// benchmark's trace epoch.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Run     int    `json:"run"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans held for the trace file (about 2 MB of
// JSON); later calls still feed the aggregates, and the file records how
// many spans it left out.
const maxKeptSpans = 20000

// tracer turns the calls of the traced pass into spans, recorded from
// outside the program: for registry programs by folding the engine's event
// log with telemetry.BuildSpans, for the synthetic dependence by timing
// the benchmark's own closures. It keeps the spans in memory and sums what
// the per-layer metrics need.
type tracer struct {
	epoch   time.Time
	kept    []span
	omitted int
	calls   int

	rootNS     int64     // summed call durations
	laneNS     int64     // within them, time some lane was executing inputs
	coveredNS  int64     // within them, time covered by any child span
	inputs     int       // engine inputs of the traced calls
	auxNS      int64     // summed auxiliary-code spans
	auxN       int       //   and their count
	validateUS []float64 // one sample per boundary resolution
	redoNS     int64     // summed redo spans
	events     int64     // engine and scheduler events the calls emitted
	lost       int64     //   and those the bounded rings dropped
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the trace clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add keeps a span for the trace file and returns its index there, or -1
// once the file is full.
func (t *tracer) add(s span) int {
	if len(t.kept) >= maxKeptSpans {
		t.omitted++
		return -1
	}
	t.kept = append(t.kept, s)
	return len(t.kept) - 1
}

// interval is a half-open time range on the trace clock.
type interval struct{ lo, hi int64 }

// unionWithin is the total length of the union of ivs clipped to [lo, hi).
func unionWithin(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, end), min(iv.hi, hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// finish files one call's root interval and its child intervals into the
// aggregates: lanes are the children during which some lane executed
// inputs, covered all children.
func (t *tracer) finish(t0, t1 int64, inputs int, lanes, covered []interval) {
	t.calls++
	t.rootNS += t1 - t0
	t.inputs += inputs
	t.laneNS += unionWithin(lanes, t0, t1)
	t.coveredNS += unionWithin(covered, t0, t1)
}

// eventSource is the benchmark's view of the event log of the observer a
// workload's traced (or observed) calls report into: a read cursor of its
// own and the offset from the observer's clock to the trace clock.
type eventSource struct {
	ob     *obs.Observer
	cur    obs.Cursor
	offset int64
	buf    []obs.Event
}

// newEventSource opens a cursor on the observer a workload's traced (or
// observed) calls report into and aligns the observer's clock with the
// trace clock by emitting one marker event, which the span model ignores,
// between two clock reads.
func newEventSource(t *tracer, ob *obs.Observer) *eventSource {
	es := &eventSource{ob: ob}
	before := t.now()
	ob.Tracer.Emit(0, obs.EvTaskFinish, -1, 0)
	after := t.now()
	if evs, _ := ob.Tracer.Poll(&es.cur, nil); len(evs) > 0 {
		es.offset = (before+after)/2 - evs[len(evs)-1].TS
	}
	return es
}

// drain discards events emitted since the last poll, so the next poll
// returns one call's events only.
func (es *eventSource) drain() {
	es.buf, _ = es.ob.Tracer.Poll(&es.cur, es.buf[:0])
}

// poll returns the events emitted since the last poll or drain, moved to
// the trace clock and in time order, and counts them (and those the
// bounded rings dropped first) into the tracer.
func (es *eventSource) poll(t *tracer) []obs.Event {
	var lost int64
	es.buf, lost = es.ob.Tracer.Poll(&es.cur, es.buf[:0])
	t.events += int64(len(es.buf)) + lost
	t.lost += lost
	for i := range es.buf {
		es.buf[i].TS += es.offset
	}
	sort.SliceStable(es.buf, func(i, j int) bool { return es.buf[i].TS < es.buf[j].TS })
	return es.buf
}

// foldCall records one traced call of a registry program that ran in
// [t0, t1) on the trace clock: a root span, and under it one span per
// auxiliary-state production, group execution, boundary resolution, redo
// phase and fallback, reconstructed from the events the call emitted.
//
// The engine produces the auxiliary states back to back on the
// coordinator before it launches the groups, so group j's aux span runs
// from the previous EvAuxProduced to its own. Nothing marks where the
// first one of an engine run started (input generation and run set-up
// precede it), so that one gets no span and stays in the call's self time.
// A boundary resolves when the coordinator has both the group's execution
// and the previous boundary's verdict, so its validate span runs from the
// later of those to the match or abort; the redo phase inside it is the
// span BuildSpans reports (first rejection to verdict).
func (t *tracer) foldCall(name string, proto core.Protocol, inputs int, t0, t1 int64, events []obs.Event) {
	run := t.calls
	root := t.add(span{Name: "RunSTATS:" + name, Layer: "workload", Run: run, Parent: -1, StartNS: t0, EndNS: t1})
	var lanes, covered []interval
	child := func(parent int, name string, lo, hi int64, lane bool) int {
		if hi < lo {
			hi = lo
		}
		covered = append(covered, interval{lo, hi})
		if lane {
			lanes = append(lanes, interval{lo, hi})
		}
		return t.add(span{Name: name, Layer: "core", Run: run, Parent: parent, StartNS: lo, EndNS: hi})
	}

	// One call may drive several engine runs in turn (swaptions prices six
	// instruments); group ids restart with each, and BuildSpans keeps one
	// tree per id, so fold each engine run's events on their own.
	first := func(e obs.Event) bool {
		if proto == core.ProtocolReservations {
			return e.Kind == obs.EvGroupStart && e.Group == 0
		}
		return e.Kind == obs.EvAuxProduced && e.Group == 1
	}
	for lo := 0; lo < len(events); {
		hi := lo + 1
		for hi < len(events) && !first(events[hi]) {
			hi++
		}
		seg := events[lo:hi]
		segEnd := seg[len(seg)-1].TS
		prevAux, prevVerdict := int64(-1), int64(0)
		for _, g := range telemetry.BuildSpans(seg).Groups {
			var execEnd int64
			for _, c := range g.Children {
				switch c.Kind {
				case telemetry.SpanAux:
					if prevAux >= 0 {
						child(root, "core.aux", prevAux, c.EndNS, false)
						t.auxNS += c.EndNS - prevAux
						t.auxN++
					}
					prevAux = c.EndNS
				case telemetry.SpanExec:
					if !c.Partial {
						child(root, "core.exec", c.StartNS, c.EndNS, true)
						execEnd = c.EndNS
					}
				case telemetry.SpanValidate:
					ready := max(execEnd, prevVerdict)
					v := child(root, "core.validate", ready, c.EndNS, false)
					t.validateUS = append(t.validateUS, float64(max(c.EndNS-ready, 0))/1e3)
					if c.Redos > 0 {
						child(v, "core.redo", c.StartNS, c.EndNS, false)
						t.redoNS += c.DurNS
					}
					prevVerdict = c.EndNS
				case telemetry.SpanFallback:
					child(root, "core.fallback", c.StartNS, segEnd, false)
				}
			}
			if g.Group == 0 {
				prevVerdict = execEnd
			}
		}
		lo = hi
	}
	t.finish(t0, t1, inputs, lanes, covered)
}

// Kinds of the synthetic dependence's closures, indexing closureNames.
const (
	closureCompute = iota
	closureAux
	closureClone
	closureMatch
)

var closureNames = [...]string{"compute", "aux", "clone", "match"}

// closureSpan is one timed closure call.
type closureSpan struct {
	kind       uint8
	start, end int64
}

// recorder collects the closure spans of one traced synthetic call. The
// engine calls the closures from its coordinator and its lanes at once, so
// slots are claimed with an atomic counter; spans past the buffer are
// counted, not stored.
type recorder struct {
	t   *tracer
	n   atomic.Int64
	buf []closureSpan
}

// newRecorder sizes the buffer for one call: every input computed once,
// redone suffixes, and three closures per group.
func newRecorder(t *tracer) *recorder {
	return &recorder{t: t, buf: make([]closureSpan, 4*synthInputs)}
}

func (r *recorder) record(kind uint8, start int64) {
	end := r.t.now()
	if i := r.n.Add(1) - 1; i < int64(len(r.buf)) {
		r.buf[i] = closureSpan{kind, start, end}
	}
}

// traced wraps the synthetic dependence's closures with the recorder.
func (r *recorder) traced(s *synth) (
	compute func(*rng.Source, uint64, uint64) (uint64, uint64),
	aux func(*rng.Source, uint64, []uint64) uint64,
	clone func(uint64) uint64,
	match func(uint64, []uint64) bool,
) {
	compute = func(src *rng.Source, in, st uint64) (uint64, uint64) {
		defer r.record(closureCompute, r.t.now())
		return s.compute(src, in, st)
	}
	aux = func(src *rng.Source, init uint64, recent []uint64) uint64 {
		defer r.record(closureAux, r.t.now())
		return s.aux(src, init, recent)
	}
	clone = func(st uint64) uint64 {
		defer r.record(closureClone, r.t.now())
		return s.clone(st)
	}
	match = func(spec uint64, originals []uint64) bool {
		defer r.record(closureMatch, r.t.now())
		return s.match(spec, originals)
	}
	return
}

// foldSynth records one traced call of the synthetic dependence through
// the facade: the root span and the closure spans under it. Whatever part
// of the root no closure covers is the runtime's own time (stats, core,
// pool, rng, obs), reported as core.self_ns_per_input.
func (t *tracer) foldSynth(name string, inputs int, t0, t1 int64, r *recorder) {
	run := t.calls
	root := t.add(span{Name: "Run:" + name, Layer: "stats", Run: run, Parent: -1, StartNS: t0, EndNS: t1})
	n := min(r.n.Swap(0), int64(len(r.buf)))
	lanes := make([]interval, 0, n)
	covered := make([]interval, 0, n)
	for _, c := range r.buf[:n] {
		t.add(span{Name: closureNames[c.kind], Layer: "workload", Run: run, Parent: root, StartNS: c.start, EndNS: c.end})
		covered = append(covered, interval{c.start, c.end})
		switch c.kind {
		case closureCompute:
			lanes = append(lanes, interval{c.start, c.end})
		case closureAux:
			t.auxNS += c.end - c.start
			t.auxN++
		case closureMatch:
			t.validateUS = append(t.validateUS, float64(c.end-c.start)/1e3)
		}
	}
	t.finish(t0, t1, inputs, lanes, covered)
}

// metrics fills the span-derived per-layer metrics.
func (t *tracer) metrics(m map[string]float64) {
	m["core.aux_us_per_group"] = ratio(float64(t.auxNS)/1e3, float64(t.auxN))
	m["core.validate_us_p50"] = mathx.Median(t.validateUS)
	m["core.validate_us_p99"], _ = highTail(t.validateUS)
	m["core.redo_us_per_boundary"] = ratio(float64(t.redoNS)/1e3, float64(len(t.validateUS)))
	m["core.serial_frac"] = 1 - ratio(float64(t.laneNS), float64(t.rootNS))
	m["core.self_ns_per_input"] = ratio(float64(t.rootNS-t.coveredNS), float64(t.inputs))
	m["obs.events_per_input"] = ratio(float64(t.events), float64(t.inputs))
	m["obs.dropped_frac"] = ratio(float64(t.lost), float64(t.events))
}

// traceFile is the document written per workload by the traced pass.
type traceFile struct {
	Workload string `json:"workload"`
	Calls    int    `json:"calls"`
	Omitted  int    `json:"spans_omitted"`
	Spans    []span `json:"spans"`
}

// write stores the kept spans as dir/<workload>.trace.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	blob, err := json.Marshal(traceFile{Workload: workload, Calls: t.calls, Omitted: t.omitted, Spans: t.kept})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ratio is a/b, or 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
