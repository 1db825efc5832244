package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
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
// depths, redo counts) only need order-of-magnitude resolution. A nil
// *Histogram is a no-op instrument.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
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
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
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
// coordination. A nil *Registry hands out nil instruments, which are
// themselves no-ops — disabling metrics is free at every layer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// cfuncs and gfuncs are function-backed instruments: their value is
	// read at exposition time, which lets state that already has its own
	// atomic counters (the Tracer's emit/drop totals) appear on every
	// scrape without double accounting.
	cfuncs map[string]func() int64
	gfuncs map[string]func() int64
	help   map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		cfuncs:   map[string]func() int64{},
		gfuncs:   map[string]func() int64{},
		help:     map[string]string{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterFunc registers a function-backed counter: fn is called at
// exposition time and must be monotonically non-decreasing and safe for
// concurrent use. Re-registering a name replaces its function. A nil
// registry ignores the registration.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfuncs[name] = fn
}

// GaugeFunc registers a function-backed gauge, read at exposition time.
// fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gfuncs[name] = fn
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
	r.help[name] = help
}

// WriteText writes every instrument in the Prometheus text exposition
// format (version 0.0.4), sorted by name so output is deterministic. Each
// metric gets a `# TYPE` line (and a `# HELP` line when SetHelp was
// called): counters and gauges as single samples, histograms as the
// standard cumulative `_bucket{le="..."}` series — complete between the
// first and last non-empty bucket, so empty interior buckets are emitted
// rather than skipped — followed by `_sum` and `_count`, plus
// `_p50`/`_p90`/`_p99` quantile-estimate gauges under their own names.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.cfuncs)+len(r.gfuncs))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	for n := range r.cfuncs {
		names = append(names, n)
	}
	for n := range r.gfuncs {
		names = append(names, n)
	}
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	cfuncs := make(map[string]func() int64, len(r.cfuncs))
	for n, f := range r.cfuncs {
		cfuncs[n] = f
	}
	gfuncs := make(map[string]func() int64, len(r.gfuncs))
	for n, f := range r.gfuncs {
		gfuncs[n] = f
	}
	help := make(map[string]string, len(r.help))
	for n, h := range r.help {
		help[n] = h
	}
	r.mu.Unlock()

	header := func(name, typ string) error {
		if h, ok := help[name]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, h); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
		return err
	}
	sample := func(name, typ string, v int64) error {
		if err := header(name, typ); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", name, v)
		return err
	}

	sort.Strings(names)
	for _, n := range names {
		switch {
		case counters[n] != nil:
			if err := sample(n, "counter", counters[n].Value()); err != nil {
				return err
			}
		case gauges[n] != nil:
			if err := sample(n, "gauge", gauges[n].Value()); err != nil {
				return err
			}
		case cfuncs[n] != nil:
			if err := sample(n, "counter", cfuncs[n]()); err != nil {
				return err
			}
		case gfuncs[n] != nil:
			if err := sample(n, "gauge", gfuncs[n]()); err != nil {
				return err
			}
		default:
			if err := writeHistogramText(w, n, hists[n], header); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogramText emits one histogram in the Prometheus histogram
// shape: cumulative le buckets (complete between the first and last
// non-empty bucket), the mandatory +Inf bucket, _sum and _count, then the
// quantile-estimate gauges.
func writeHistogramText(w io.Writer, n string, h *Histogram, header func(name, typ string) error) error {
	if err := header(n, "histogram"); err != nil {
		return err
	}
	// One snapshot feeds every line, so the emitted series is internally
	// consistent (cumulative counts never exceed the +Inf bucket, the
	// quantiles agree with the buckets) even when Observe races with the
	// scrape.
	snap := h.Snapshot()
	last := -1
	for i, c := range snap.Counts {
		if c != 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		if cum += snap.Counts[i]; cum == 0 {
			continue // before the first non-empty bucket
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, histBucketHi(i), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, snap.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", n, snap.Sum, n, snap.Count); err != nil {
		return err
	}
	for _, q := range [...]struct {
		suffix string
		q      float64
	}{{"_p50", 0.5}, {"_p90", 0.9}, {"_p99", 0.99}} {
		qn := n + q.suffix
		if err := header(qn, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", qn, snap.Quantile(q.q)); err != nil {
			return err
		}
	}
	return nil
}

// Text returns the WriteText exposition as a string.
func (r *Registry) Text() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}
