package telemetry

import (
	"errors"
	"fmt"
	"reflect"

	"repro/internal/obs"
)

// Reconcile checks a run's accounts against one another, row by row of the
// fact table (obs.Catalogue). stats is a core.Stats, or a sum of them
// (Stats.Add) over several runs, read by the field names the table holds; o
// is the observer that watched exactly those runs; m is a parse of o's
// exposition taken after them. For every row, the exposition's sample (a
// histogram's _sum), the kind's counter for an event-backed row and its
// events — counted, or their Args summed for a by-Arg kind — must agree, and
// a row naming a Stats field must equal that field too. The event log is
// left out when the tracer dropped events. The error names every
// disagreement; nil means every account agrees.
func Reconcile(stats any, o *obs.Observer, m *PromMetrics) error {
	var logged obs.Counts
	for _, e := range o.Tracer.Snapshot() {
		if e.Kind.Fact().ByArg {
			logged[e.Kind] += e.Arg
		} else {
			logged[e.Kind]++
		}
	}
	counts, fields := o.Counts(), reflect.Indirect(reflect.ValueOf(stats))
	var errs []error
	for i, f := range obs.Catalogue() {
		sample, ok := m.Value(f.Metric)
		if !ok {
			sample, ok = m.Value(f.Metric + "_sum")
		}
		if !ok {
			errs = append(errs, fmt.Errorf("%s: no sample in the exposition", f.Metric))
			continue
		}
		check := func(account string, v int64) {
			if v != int64(sample) {
				errs = append(errs, fmt.Errorf("%s: exposition %d, %s %d", f.Metric, int64(sample), account, v))
			}
		}
		if f.Stats != "" {
			check("Stats."+f.Stats, fields.FieldByName(f.Stats).Int())
		}
		// The catalogue lists the event kinds first, in kind order from 1.
		if kind := obs.EventKind(i + 1); f.Event != "" {
			check(f.Event+" counter", counts[kind])
			if o.Tracer.Dropped() == 0 {
				check(f.Event+" events", logged[kind])
			}
		}
	}
	return errors.Join(errs...)
}
