package obs

import (
	"os"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d, want 5", c.Value())
	}
	if r.Counter("c_total") != c {
		t.Fatal("Counter must be get-or-create")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.SetMax(3) // lower: no effect
	if g.Value() != 7 {
		t.Fatalf("gauge %d, want 7", g.Value())
	}
	g.SetMax(11)
	if g.Value() != 11 {
		t.Fatalf("gauge %d, want 11", g.Value())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		r *Registry
	)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.SetMax(2)
	h.Observe(9)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if err := r.WriteText(nil); err != nil {
		t.Fatal(err)
	}
	if r.Text() != "" {
		t.Fatal("nil registry text must be empty")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := &Histogram{}
	// 10 observations at 1 and 10 at 1000: p50 falls in the first
	// bucket's range, p99 in the 1000 bucket ([512,1024) -> hi 1023).
	for i := 0; i < 10; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	if h.Count() != 20 || h.Sum() != 10+10*1000 {
		t.Fatalf("count %d sum %d", h.Count(), h.Sum())
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Fatalf("p50 %d, want 1", q)
	}
	if q := h.Quantile(0.99); q != 1023 {
		t.Fatalf("p99 %d, want 1023", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0 %d, want 1 (first non-empty bucket)", q)
	}
	if q := h.Quantile(1); q != 1023 {
		t.Fatalf("p100 %d, want 1023", q)
	}
	// Non-positive observations land in bucket 0 with upper bound 0.
	h2 := &Histogram{}
	h2.Observe(0)
	h2.Observe(-5)
	if q := h2.Quantile(0.9); q != 0 {
		t.Fatalf("non-positive quantile %d", q)
	}
}

func TestWriteTextDeterministicExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Inc()
	r.SetHelp("a_total", "things counted")
	r.Gauge("depth_peak").SetMax(3)
	r.CounterFunc("f_total", func() int64 { return 9 })
	h := r.Histogram("lat_ns")
	h.Observe(100)
	h.Observe(200)
	got := r.Text()
	want := strings.Join([]string{
		"# HELP a_total things counted",
		"# TYPE a_total counter",
		"a_total 1",
		"# TYPE b_total counter",
		"b_total 2",
		"# TYPE depth_peak gauge",
		"depth_peak 3",
		"# TYPE f_total counter",
		"f_total 9",
		"# TYPE lat_ns histogram",
		"lat_ns_bucket{le=\"127\"} 1",
		"lat_ns_bucket{le=\"255\"} 2",
		"lat_ns_bucket{le=\"+Inf\"} 2",
		"lat_ns_sum 300",
		"lat_ns_count 2",
		"# TYPE lat_ns_p50 gauge",
		"lat_ns_p50 127",
		"# TYPE lat_ns_p90 gauge",
		"lat_ns_p90 255",
		"# TYPE lat_ns_p99 gauge",
		"lat_ns_p99 255",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if r.Text() != got {
		t.Fatal("exposition must be deterministic")
	}
}

func TestWriteTextCumulativeCompleteBuckets(t *testing.T) {
	// Observations at 1 and 1000 leave eight empty buckets between the
	// two non-empty ones; the exposition must emit every interior bucket
	// with its (unchanged) cumulative count rather than skip them.
	r := NewRegistry()
	h := r.Histogram("lat")
	h.Observe(1)
	h.Observe(1000)
	text := r.Text()
	var buckets []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "lat_bucket{") {
			buckets = append(buckets, line)
		}
	}
	// Bucket 1 (le=1) through bucket 10 (le=1023) inclusive, plus +Inf.
	if len(buckets) != 11 {
		t.Fatalf("bucket lines: %d, want 11 (interior buckets must not be skipped):\n%s",
			len(buckets), strings.Join(buckets, "\n"))
	}
	for i, want := range []string{
		`lat_bucket{le="1"} 1`, `lat_bucket{le="3"} 1`, `lat_bucket{le="7"} 1`,
		`lat_bucket{le="15"} 1`, `lat_bucket{le="31"} 1`, `lat_bucket{le="63"} 1`,
		`lat_bucket{le="127"} 1`, `lat_bucket{le="255"} 1`, `lat_bucket{le="511"} 1`,
		`lat_bucket{le="1023"} 2`, `lat_bucket{le="+Inf"} 2`,
	} {
		if buckets[i] != want {
			t.Fatalf("bucket %d = %q, want %q", i, buckets[i], want)
		}
	}
}

func TestObserverExposesTracerLoss(t *testing.T) {
	o := NewObserver(1, 4)
	for i := 0; i < 6; i++ {
		o.Tracer.Emit(0, EvGroupStart, int32(i), 0)
	}
	text := o.Reg.Text()
	for _, want := range []string{
		"trace_events_emitted_total 6",
		"trace_events_dropped_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestObserverPreRegistersEverything(t *testing.T) {
	o := NewObserver(4, 128)
	if o.Tracer == nil || o.Reg == nil {
		t.Fatal("observer missing tracer or registry")
	}
	if o.Tracer.Lanes() != 4 {
		t.Fatalf("lanes %d", o.Tracer.Lanes())
	}
	o.Note(LaneCoord, EvValidateMatch, 1, 0)
	o.ValidationLatencyNS.Observe(1500)
	text := o.Reg.Text()
	for _, want := range []string{
		"stats_validation_match_total 1",
		"stats_validation_latency_ns_count 1",
		"stats_aborts_total 0",
		"sched_steals_total 0",
		"sched_queue_depth_peak 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// populatedRegistry is an observer's registry after a fixed set of notes
// and observations — a histogram with empty interior buckets, one never
// observed, a lapped tracer ring — plus instruments of every kind outside
// the fact table, and a HELP line no instrument claims.
func populatedRegistry() *Registry {
	o := NewObserver(2, 16)
	for i := 0; i < 40; i++ {
		o.Note(i%2, EvGroupStart, int32(i), 0)
	}
	o.Note(LaneCoord, EvValidateMatch, 1, 0)
	o.Note(LaneCoord, EvRedo, 2, 1)
	o.Note(0, EvFallback, 2, 12)
	o.FingerprintHits.Add(3)
	for _, v := range []int64{1, 3, 1000, 1 << 20} {
		o.ValidationLatencyNS.Observe(v)
	}
	o.RedosPerValidation.Observe(0)
	o.RedosPerValidation.Observe(2)
	o.QueueDepthPeak.SetMax(7)
	r := o.Reg
	r.SetHelp("a_help_only", "help with no instrument under its name")
	r.SetHelp("zz_gauge_fn", "a function-backed gauge")
	r.GaugeFunc("zz_gauge_fn", func() int64 { return -5 })
	r.CounterFunc("aa_counter_fn", func() int64 { return 9 })
	r.Gauge("m_gauge").Set(-2)
	r.Histogram("m_empty_hist")
	return r
}

// TestWriteTextGolden pins the whole exposition of a populated registry
// byte for byte (testdata/exposition.golden; -update rewrites it, only on
// purpose).
func TestWriteTextGolden(t *testing.T) {
	const path = "testdata/exposition.golden"
	got := populatedRegistry().Text()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from %s:\n%s", path, got)
	}
}

// TestWriteTextConcurrentScrapes: scrapes racing each other each write the
// whole exposition — the buffer a registry keeps between scrapes is never
// shared by two in flight.
func TestWriteTextConcurrentScrapes(t *testing.T) {
	r := populatedRegistry()
	want := r.Text()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := r.Text(); got != want {
					t.Errorf("concurrent scrape wrote:\n%s\nwant:\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestKindClashKeepsFirstInstrument: asking for a registered name as
// another kind of instrument neither fails nor changes what the name
// exposes — the first registration keeps it, and the clashing caller gets
// a working instrument no scrape shows.
func TestKindClashKeepsFirstInstrument(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Add(3)
	r.Gauge("y").Set(5)
	want := r.Text()

	g := r.Gauge("x_total")
	g.Set(7)
	h := r.Histogram("x_total")
	h.Observe(9)
	r.CounterFunc("y", func() int64 { return 11 })
	r.GaugeFunc("x_total", func() int64 { return 13 })
	cy := r.Counter("y")
	cy.Inc()

	if got := r.Text(); got != want {
		t.Fatalf("a kind clash changed the exposition:\n%s\nwant:\n%s", got, want)
	}
	if g.Value() != 7 || h.Count() != 1 || cy.Value() != 1 {
		t.Errorf("detached instruments must still work: gauge %d, histogram count %d, counter %d",
			g.Value(), h.Count(), cy.Value())
	}
	if r.Counter("x_total") != c || c.Value() != 3 {
		t.Errorf("the first registration lost its counter (value %d)", c.Value())
	}
}
