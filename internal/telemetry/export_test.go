package telemetry

import (
	"strings"

	"repro/internal/obs"
)

// FoldBatch folds a batch of events directly (no tracer involved). The
// batch is sorted by timestamp in place.
func (f *SpanFolder) FoldBatch(events []obs.Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.foldBatchLocked(events)
}

// SpanString renders doc to a string.
func SpanString(doc *SpanDoc) string {
	var b strings.Builder
	RenderSpans(&b, doc)
	return b.String()
}
