package obs

import (
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter is
// a valid no-op instrument: every method checks the receiver, so emission
// sites pay one branch when metrics are disabled.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d (d must be non-negative; counters only go up).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically-set instantaneous value. Like Counter, a nil
// *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add shifts the gauge by d (which may be negative) atomically — the
// up/down counterpart of Counter.Add for level-style gauges.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// SetMax raises the gauge to v if v exceeds the current value (a lock-free
// high-water mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a log-scale histogram: bucket 0 holds
// values <= 0 and bucket i (1..64) holds values in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a log-scale (power-of-two bucket) histogram of int64
// observations, updated with plain atomics so concurrent Observe calls
// never contend on a lock. It covers the full int64 range in 65 buckets —
// coarse, but the quantities it observes (latencies in nanoseconds, queue
// depths, redo counts) only need order-of-magnitude resolution. Its count
// is the buckets' sum, so an observation is one bucket add and, unless it
// is zero, one sum add. A nil *Histogram is a no-op instrument.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
}

// histBucket maps an observation to its bucket index.
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// histBucketHi returns the inclusive upper bound of bucket i, used both as
// the exposition "le" label and as the quantile estimate.
func histBucketHi(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return int64(^uint64(0) >> 1) // MaxInt64
	}
	return int64(1)<<i - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[histBucket(v)].Add(1)
	if v != 0 {
		h.sum.Add(v)
	}
}

// Count returns the number of observations (0 on a nil histogram): the
// buckets' sum, read once each.
func (h *Histogram) Count() int64 {
	return h.Snapshot().Count
}

// Sum returns the sum of all observations (0 on a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns an upper-bound estimate of the q-quantile (q in [0,1]):
// the upper bound of the first bucket whose cumulative count reaches
// q*Count. With power-of-two buckets the estimate is within 2x of the true
// value, which is what log-scale percentile reporting promises.
func (h *Histogram) Quantile(q float64) int64 {
	return h.Snapshot().Quantile(q)
}

// HistBuckets is the exported bucket count of the log-scale histograms,
// for consumers that carry HistogramSnapshot values around.
const HistBuckets = histBuckets

// HistogramSnapshot is a point-in-time copy of a histogram's buckets,
// cheap to subtract and query — the building block for windowed
// quantiles (telemetry.Signals keeps one per sample and reports
// quantiles of the bucket deltas).
type HistogramSnapshot struct {
	Counts [HistBuckets]int64
	Sum    int64
	Count  int64
}

// Snapshot copies the histogram's current buckets. Count is derived from
// the bucket copies so the snapshot is internally consistent even when
// Observe races with it. A nil histogram yields a zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := 0; i < histBuckets; i++ {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// Sub returns the per-bucket difference s - base, clamping each bucket
// (and the sum and count) at zero so a racing base snapshot can never
// produce negative window counts.
func (s HistogramSnapshot) Sub(base HistogramSnapshot) HistogramSnapshot {
	var d HistogramSnapshot
	for i := 0; i < histBuckets; i++ {
		if v := s.Counts[i] - base.Counts[i]; v > 0 {
			d.Counts[i] = v
			d.Count += v
		}
	}
	if v := s.Sum - base.Sum; v > 0 {
		d.Sum = v
	}
	return d
}

// Quantile returns the upper-bound q-quantile estimate over the snapshot's
// buckets (see Histogram.Quantile).
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += s.Counts[i]
		if cum >= target {
			return histBucketHi(i)
		}
	}
	return histBucketHi(histBuckets - 1)
}

// Registry is a named collection of counters, gauges and histograms with a
// deterministic Prometheus text exposition. Instruments are get-or-create
// by name, so independent components can share a registry without
// coordination. A name holds the first kind of instrument registered
// under it; asking for it as another kind hands out a detached instrument
// that no exposition shows, and never fails. A nil *Registry hands out nil
// instruments, which are themselves no-ops — disabling metrics is free at
// every layer.
type Registry struct {
	mu sync.Mutex
	// entries is the registry's one table, kept in name order as
	// instruments register, so an exposition walks it as it stands.
	entries []entry
	// scratch holds a WriteText call's buffers between calls; a call that
	// finds them taken by a concurrent one builds its own.
	scratch *textScratch
}

// instKind is the kind of instrument a registry entry holds.
type instKind uint8

const (
	// helpOnly: SetHelp named the entry before any instrument registered
	// under it; it is not exposed.
	helpOnly instKind = iota
	kindCounter
	kindGauge
	kindHistogram
	// kindCounterFunc and kindGaugeFunc are function-backed instruments:
	// their value is read at exposition time, which lets state that
	// already has its own atomic counters (the Tracer's emit/drop totals)
	// appear on every scrape without double accounting.
	kindCounterFunc
	kindGaugeFunc
)

// kindNames are the exposition's TYPE names.
var kindNames = [...]string{
	kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram",
	kindCounterFunc: "counter", kindGaugeFunc: "gauge",
}

// entry is one row of the registry table: a name, its kind, the
// instrument (the one field its kind uses) and its HELP line.
type entry struct {
	name    string
	kind    instKind
	hasHelp bool
	help    string
	c       *Counter
	g       *Gauge
	h       *Histogram
	fn      func() int64
}

// textScratch is WriteText's reusable state: a copy of the table and the
// exposition buffer.
type textScratch struct {
	entries []entry
	buf     []byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// byName orders entries by name.
func byName(e entry, name string) int { return strings.Compare(e.name, name) }

// entryLocked returns the entry registered under name, inserting an
// empty one in name order if there is none. Called with r.mu held.
func (r *Registry) entryLocked(name string) *entry {
	i, ok := slices.BinarySearchFunc(r.entries, name, byName)
	if !ok {
		r.entries = slices.Insert(r.entries, i, entry{name: name})
	}
	return &r.entries[i]
}

// claimLocked returns the entry for an instrument of kind k under name,
// marking a new or help-only entry as k. A name holds one instrument, the
// first to register under it: claiming it as another kind returns nil.
// Called with r.mu held.
func (r *Registry) claimLocked(name string, k instKind) *entry {
	e := r.entryLocked(name)
	if e.kind == helpOnly {
		e.kind = k
	} else if e.kind != k {
		return nil
	}
	return e
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (no-op) counter. A name another kind
// of instrument registered first yields a detached counter: it counts,
// but no exposition shows it.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.claimLocked(name, kindCounter)
	if e == nil {
		return &Counter{}
	}
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Like Counter, a name another kind holds yields a detached gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.claimLocked(name, kindGauge)
	if e == nil {
		return &Gauge{}
	}
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// Histogram returns the histogram registered under name, creating it on
// first use. Like Counter, a name another kind holds yields a detached
// histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.claimLocked(name, kindHistogram)
	if e == nil {
		return &Histogram{}
	}
	if e.h == nil {
		e.h = &Histogram{}
	}
	return e.h
}

// CounterFunc registers a function-backed counter: fn is called at
// exposition time and must be monotonically non-decreasing and safe for
// concurrent use. Re-registering a name replaces its function. A nil
// registry, or a name another kind of instrument holds, ignores the
// registration.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.setFunc(name, kindCounterFunc, fn)
}

// GaugeFunc registers a function-backed gauge, read at exposition time.
// fn must be safe for concurrent use. As with CounterFunc, a name another
// kind holds ignores the registration.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.setFunc(name, kindGaugeFunc, fn)
}

func (r *Registry) setFunc(name string, k instKind, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.claimLocked(name, k); e != nil {
		e.fn = fn
	}
}

// SetHelp attaches a HELP string to the instrument registered under name;
// WriteText emits it as the metric's `# HELP` line. For a histogram the
// name is the base name (without _bucket/_sum/_count).
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entryLocked(name)
	e.help, e.hasHelp = help, true
}

// WriteText writes every instrument in the Prometheus text exposition
// format (version 0.0.4), sorted by name so output is deterministic. Each
// metric gets a `# TYPE` line (and a `# HELP` line when SetHelp was
// called): counters and gauges as single samples, histograms as the
// standard cumulative `_bucket{le="..."}` series — complete between the
// first and last non-empty bucket, so empty interior buckets are emitted
// rather than skipped — followed by `_sum` and `_count`, plus
// `_p50`/`_p90`/`_p99` quantile-estimate gauges under their own names.
// The exposition is assembled in one buffer and written with one Write.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Copy the table under the lock, then read the instruments outside
	// it: a function-backed instrument may take locks of its own.
	r.mu.Lock()
	s := r.scratch
	r.scratch = nil
	if s == nil {
		s = new(textScratch)
	}
	s.entries = append(s.entries[:0], r.entries...)
	r.mu.Unlock()

	b := s.buf[:0]
	for i := range s.entries {
		e := &s.entries[i]
		switch e.kind {
		case kindCounter:
			b = appendSample(b, e, e.c.Value())
		case kindGauge:
			b = appendSample(b, e, e.g.Value())
		case kindCounterFunc, kindGaugeFunc:
			b = appendSample(b, e, e.fn())
		case kindHistogram:
			b = appendHistogram(b, e, s.entries)
		}
	}
	var err error
	if len(b) > 0 {
		_, err = w.Write(b)
	}

	s.buf = b
	r.mu.Lock()
	if r.scratch == nil {
		r.scratch = s
	}
	r.mu.Unlock()
	return err
}

// appendHeader appends the `# HELP` (when set) and `# TYPE` lines of the
// metric named name+suffix.
func appendHeader(b []byte, name, suffix string, hasHelp bool, help, typ string) []byte {
	if hasHelp {
		b = append(b, "# HELP "...)
		b = append(append(b, name...), suffix...)
		b = append(append(append(b, ' '), help...), '\n')
	}
	b = append(b, "# TYPE "...)
	b = append(append(b, name...), suffix...)
	return append(append(append(b, ' '), typ...), '\n')
}

// appendSample appends a single-sample metric: e's header and the sample
// line.
func appendSample(b []byte, e *entry, v int64) []byte {
	b = appendHeader(b, e.name, "", e.hasHelp, e.help, kindNames[e.kind])
	b = append(b, e.name...)
	return append(strconv.AppendInt(append(b, ' '), v, 10), '\n')
}

// appendHistogram appends one histogram in the Prometheus histogram shape:
// cumulative le buckets (complete between the first and last non-empty
// bucket), the mandatory +Inf bucket, _sum and _count, then the
// quantile-estimate gauges, each with the HELP line the table holds for
// its own name.
func appendHistogram(b []byte, e *entry, table []entry) []byte {
	b = appendHeader(b, e.name, "", e.hasHelp, e.help, kindNames[e.kind])
	// One snapshot feeds every line, so the emitted series is internally
	// consistent (cumulative counts never exceed the +Inf bucket, the
	// quantiles agree with the buckets) even when Observe races with the
	// scrape.
	snap := e.h.Snapshot()
	last := -1
	for i, c := range snap.Counts {
		if c != 0 {
			last = i
		}
	}
	bucket := func(b []byte, le []byte, cum int64) []byte {
		b = append(append(b, e.name...), `_bucket{le="`...)
		b = append(append(b, le...), `"} `...)
		return append(strconv.AppendInt(b, cum, 10), '\n')
	}
	var cum int64
	var le [24]byte
	for i := 0; i <= last; i++ {
		if cum += snap.Counts[i]; cum == 0 {
			continue // before the first non-empty bucket
		}
		b = bucket(b, strconv.AppendInt(le[:0], histBucketHi(i), 10), cum)
	}
	b = bucket(b, append(le[:0], "+Inf"...), snap.Count)
	b = append(append(b, e.name...), "_sum "...)
	b = append(strconv.AppendInt(b, snap.Sum, 10), '\n')
	b = append(append(b, e.name...), "_count "...)
	b = append(strconv.AppendInt(b, snap.Count, 10), '\n')
	for _, q := range [...]struct {
		suffix string
		q      float64
	}{{"_p50", 0.5}, {"_p90", 0.9}, {"_p99", 0.99}} {
		var help string
		i, hasHelp := slices.BinarySearchFunc(table, q.suffix, func(t entry, suffix string) int {
			return compareJoined(t.name, e.name, suffix)
		})
		if hasHelp {
			help, hasHelp = table[i].help, table[i].hasHelp
		}
		b = appendHeader(b, e.name, q.suffix, hasHelp, help, "gauge")
		b = append(append(append(b, e.name...), q.suffix...), ' ')
		b = append(strconv.AppendInt(b, snap.Quantile(q.q), 10), '\n')
	}
	return b
}

// compareJoined compares s with prefix+suffix without building the
// latter.
func compareJoined(s, prefix, suffix string) int {
	if len(s) < len(prefix) {
		if c := strings.Compare(s, prefix[:len(s)]); c != 0 {
			return c
		}
		return -1
	}
	if c := strings.Compare(s[:len(prefix)], prefix); c != 0 {
		return c
	}
	return strings.Compare(s[len(prefix):], suffix)
}

// Text returns the WriteText exposition as a string.
func (r *Registry) Text() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}
