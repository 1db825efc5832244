// Package telemetry is the serving surface of the observability layer: an
// embeddable HTTP server exposing the runtime's metrics registry
// (Prometheus text exposition), rolling control signals and a health
// verdict over one window of the speculation counters, a live event stream
// (SSE), on-demand Chrome-trace
// dumps, and a causal span model reconstructed from the speculation event
// log.
//
// The span model turns internal/obs's flat, per-lane event rings into the
// structure the paper's evaluation reasons about: one span tree per
// speculation group, connecting the group's auxiliary-state production to
// its execution, its boundary validation (with every redo), and its abort,
// squash or fallback outcome. Reconstruction is tolerant of the tracer's
// bounded rings: a group whose records were partially overwritten is
// flagged partial, never fabricated.
//
// Everything here reads the tracer and registry through their lock-free
// snapshot paths, so a live scrape or an attached stream client never
// blocks Tracer.Emit — the engine's hot path stays hot while the system
// is observed.
package telemetry

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/obs"
)

// Span kinds, the node types of a group's span tree.
const (
	// SpanGroup is a tree root: one speculation group's whole lifecycle.
	SpanGroup = "group"
	// SpanExec is the group's execution on a worker (EvGroupStart →
	// EvGroupFinish).
	SpanExec = "exec"
	// SpanAux is the auxiliary-code production of the group's
	// speculative start state, on the group's own lane ahead of its
	// execution: it ends at the EvAuxProduced stamp and lasts the duration
	// the event carries (Arg is the window consumed).
	SpanAux = "aux"
	// SpanValidate is the group boundary's resolution: from the first
	// rejection (or the acceptance itself) to the final match or abort.
	// Its children are the redo spans the resolution consumed.
	SpanValidate = "validate"
	// SpanRedo is one original-producer re-execution (instant; Arg is
	// the attempt number).
	SpanRedo = "redo"
	// SpanSquash marks the group's in-flight work being squashed by an
	// abort (instant; Arg is the number of inputs discarded).
	SpanSquash = "squash"
	// SpanFallback marks the sequential fallback starting at this group
	// after an abort (instant; Arg is the number of inputs reprocessed).
	SpanFallback = "fallback"
)

// Group outcomes, derived from the terminal event observed for the group.
const (
	// OutcomeValidated: the group's speculative start state was accepted.
	OutcomeValidated = "validated"
	// OutcomeAborted: the group's boundary exhausted its redo budget.
	OutcomeAborted = "aborted"
	// OutcomeSquashed: the group was squashed by an earlier abort.
	OutcomeSquashed = "squashed"
	// OutcomeConventional: the group ran inside a conventional streak of
	// the reservations protocol — its inputs in index order, no rounds —
	// and committed with it (EvConventional); its exec span's Arg is the
	// inputs it committed.
	OutcomeConventional = "conventional"
	// OutcomeUnvalidated: no validation event was observed — group 0
	// (which never speculates), a run still in flight, or a log whose
	// validation records were evicted.
	OutcomeUnvalidated = "unvalidated"
)

// Cause is why a group root failed. It marshals as its name; the zero
// value (a root that did not fail) is omitted.
type Cause uint8

// Abort causes. An aborted root no contained failure explains is
// CauseMismatch.
const (
	// CauseMismatch: the boundary exhausted its redo budget.
	CauseMismatch Cause = iota + 1
	// CausePanic: user code panicked in the group and was contained.
	CausePanic
	// CauseTimeout: the group overran its deadline.
	CauseTimeout
	// CauseFootprint: the group touched a slot outside its declared
	// reservation footprint.
	CauseFootprint
)

var causeNames = [...]string{"", "mismatch", "panic", "timeout", "footprint"}

// String returns the cause's name.
func (c Cause) String() string { return causeNames[c] }

// MarshalText renders the cause as its name.
func (c Cause) MarshalText() ([]byte, error) { return []byte(causeNames[c]), nil }

// UnmarshalText parses a cause name.
func (c *Cause) UnmarshalText(name []byte) error {
	i := slices.Index(causeNames[:], string(name))
	if i < 0 {
		return fmt.Errorf("telemetry: unknown abort cause %q", name)
	}
	*c = Cause(i)
	return nil
}

// Span is one node of a group's reconstructed span tree. Timestamps are
// nanoseconds since the tracer's epoch, as recorded in the event log. One
// is allocated per node of every folded group, so the fields are typed
// and ordered to keep it in the allocator's 128-byte size class.
type Span struct {
	// Kind is the node type (SpanGroup, SpanExec, ...).
	Kind string `json:"kind"`
	// Group is the speculation group the span concerns.
	Group int32 `json:"group"`
	// Partial marks a span whose bounding events were partially evicted
	// by the tracer's bounded rings: its timestamps cover only what was
	// observed, nothing is fabricated.
	Partial bool `json:"partial,omitempty"`
	// Cause is why a group root failed: set by a contained panic,
	// deadline or footprint violation, and CauseMismatch on any other
	// aborted root.
	Cause Cause `json:"cause,omitempty"`
	// StartNS and EndNS bound the span; instants have StartNS == EndNS.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// DurNS is EndNS - StartNS, precomputed for consumers.
	DurNS int64 `json:"dur_ns"`
	// Outcome annotates group roots (OutcomeValidated, ...) and validate
	// spans ("match", "match-after-redo", "abort", "unresolved").
	Outcome string `json:"outcome,omitempty"`
	// Arg is the kind-specific argument of the underlying event (outputs
	// produced, window consumed, redo attempt, inputs squashed).
	Arg int64 `json:"arg,omitempty"`
	// Redos is the number of re-executions a validate span consumed.
	Redos int32 `json:"redos,omitempty"`
	// Reserves, Conflicts and Commits count a group root's reservation
	// events (EvReserve, EvReserveLost, EvCommit), one per input each.
	Reserves  int32 `json:"reserves,omitempty"`
	Conflicts int32 `json:"conflicts,omitempty"`
	Commits   int32 `json:"commits,omitempty"`
	// CPUCommittedNS and CPUWastedNS carry a group root's wasted-work
	// attribution — lane CPU nanoseconds whose results were committed vs
	// discarded (EvLaneCPUCommitted/EvLaneCPUWasted) — zero on logs that
	// predate attribution or groups that burned none.
	CPUCommittedNS int64 `json:"cpu_committed_ns,omitempty"`
	CPUWastedNS    int64 `json:"cpu_wasted_ns,omitempty"`
	// Children are the span's sub-spans, in start order.
	Children []*Span `json:"children,omitempty"`
}

// SpanDoc is the reconstructed span forest for one event-log snapshot —
// the payload of the server's /spans endpoint.
type SpanDoc struct {
	// Events is the number of events the reconstruction consumed
	// (engine events; scheduler dispatch events are counted separately).
	Events int `json:"events"`
	// SchedulerEvents is the number of dispatch/task-finish
	// events in the snapshot, which LaneTasks pairs instead.
	SchedulerEvents int `json:"scheduler_events"`
	// Emitted and Dropped are the tracer's lifetime totals at snapshot
	// time; Dropped > 0 explains Partial spans.
	Emitted int64 `json:"emitted"`
	Dropped int64 `json:"dropped"`
	// PartialGroups counts group roots flagged Partial.
	PartialGroups int `json:"partial_groups"`
	// Groups are the span trees, ordered by group index.
	Groups []*Span `json:"groups"`
}

// BuildSpans folds a tracer snapshot into per-group span trees. The input
// may be unordered; scheduler lane events are only counted (LaneTasks
// pairs them). Equal inputs yield identical output.
//
// BuildSpans is the one-shot form of SpanFolder (folder.go): the same
// fold over the whole snapshot as a single batch, with no retention
// bound, so a group id a later run reuses yields one tree per execution
// however many there are. Long-lived consumers (the telemetry server's
// /spans) hold a SpanFolder instead and pay only for new events.
func BuildSpans(events []obs.Event) *SpanDoc {
	sorted := make([]obs.Event, len(events))
	copy(sorted, events)
	f := &SpanFolder{live: map[int32]int{}, docDirty: true}
	f.foldBatchLocked(sorted)
	return f.Doc()
}

// RenderSpans writes the span forest as an indented text tree — the view
// statstrace presents for a live run or a /spans JSON document.
func RenderSpans(w io.Writer, doc *SpanDoc) {
	fmt.Fprintf(w, "spans: %d groups (%d partial), %d engine events, %d scheduler events",
		len(doc.Groups), doc.PartialGroups, doc.Events, doc.SchedulerEvents)
	if doc.Dropped > 0 {
		fmt.Fprintf(w, ", %d/%d events dropped by the bounded rings", doc.Dropped, doc.Emitted)
	}
	fmt.Fprintln(w)
	for _, g := range doc.Groups {
		renderSpan(w, g, 0)
	}
}

// renderSpan writes one span node and recurses into its children.
func renderSpan(w io.Writer, s *Span, depth int) {
	indent := strings.Repeat("  ", depth)
	switch s.Kind {
	case SpanGroup:
		cpu := ""
		if s.CPUCommittedNS > 0 || s.CPUWastedNS > 0 {
			cpu = fmt.Sprintf(" cpu committed=%s wasted=%s",
				fmtNS(s.CPUCommittedNS), fmtNS(s.CPUWastedNS))
		}
		fmt.Fprintf(w, "%sg%03d [t+%s %s] %s%s%s%s\n", indent, s.Group,
			fmtNS(s.StartNS), fmtNS(s.DurNS), s.Outcome, rootNotes(s, " cause=%s", " %s=%d"), cpu, partialMark(s))
	case SpanExec:
		fmt.Fprintf(w, "%sexec     %s outputs=%d%s\n", indent, fmtNS(s.DurNS), s.Arg, partialMark(s))
	case SpanAux:
		fmt.Fprintf(w, "%saux      %s window=%d\n", indent, fmtNS(s.DurNS), s.Arg)
	case SpanValidate:
		fmt.Fprintf(w, "%svalidate %s %s redos=%d%s\n", indent, fmtNS(s.DurNS), s.Outcome, s.Redos, partialMark(s))
	case SpanRedo:
		fmt.Fprintf(w, "%sredo #%d @t+%s\n", indent, s.Arg, fmtNS(s.StartNS))
	case SpanSquash:
		fmt.Fprintf(w, "%ssquash   @t+%s inputs=%d\n", indent, fmtNS(s.StartNS), s.Arg)
	case SpanFallback:
		fmt.Fprintf(w, "%sfallback @t+%s inputs=%d\n", indent, fmtNS(s.StartNS), s.Arg)
	default:
		fmt.Fprintf(w, "%s%s [t+%s %s]%s\n", indent, s.Kind, fmtNS(s.StartNS), fmtNS(s.DurNS), partialMark(s))
	}
	for _, c := range s.Children {
		renderSpan(w, c, depth+1)
	}
}

// rootNotes renders a group root's cause through causeFmt and each
// non-zero reservation count (a key and a value) through countFmt: the
// tree and the waterfall print them as text, the Chrome export as JSON
// members.
func rootNotes(g *Span, causeFmt, countFmt string) string {
	var b strings.Builder
	if g.Cause != 0 {
		fmt.Fprintf(&b, causeFmt, g.Cause)
	}
	for _, n := range []struct {
		key string
		v   int32
	}{{"reserves", g.Reserves}, {"conflicts", g.Conflicts}, {"commits", g.Commits}} {
		if n.v > 0 {
			fmt.Fprintf(&b, countFmt, n.key, n.v)
		}
	}
	return b.String()
}

// partialMark renders the partial flag as a suffix.
func partialMark(s *Span) string {
	if s.Partial {
		return " (partial)"
	}
	return ""
}

// fmtNS renders a nanosecond quantity compactly.
func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}
