package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/obs"
)

// Chrome trace_event pids: the engine's group timeline and the
// scheduler's per-worker timeline render as two processes.
const (
	chromePidEngine    = 1
	chromePidScheduler = 2
)

// ChromeTrace writes the observed event log in the Chrome trace_event JSON
// format, loadable in chrome://tracing or https://ui.perfetto.dev. It is a
// view of the log's span document and lane tasks: group executions become
// complete ("X") spans under the "engine" process, one track per group,
// carrying the root's abort cause and reservation counts in their args
// (one span per execution when later runs reuse a group id); auxiliary-state
// productions and boundary resolutions with a duration are "X" spans too;
// every other span node — redos, squashes, fallback — is an instant
// ("i") on the group's track, as is an execution whose start or finish
// record is missing. Closed lane tasks become spans under the "scheduler"
// process, one track per worker lane, open ones instants. Output is
// deterministic for a given event slice.
func ChromeTrace(w io.Writer, events []obs.Event) error {
	return writeChrome(w, BuildSpans(events), LaneTasks(events))
}

func writeChrome(w io.Writer, doc *SpanDoc, tasks []LaneTask) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	meta := func(sep string, pid int, tid int64, what, name string) {
		fmt.Fprintf(bw, `%s{"name":"%s","ph":"M","pid":%d,"tid":%d,"args":{"name":"%s"}}`,
			sep, what, pid, tid, name)
	}
	meta("", chromePidEngine, 0, "process_name", "engine")
	meta(",\n", chromePidScheduler, 0, "process_name", "scheduler")

	// µs timestamps with nanosecond precision, the unit trace viewers use.
	us := func(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e3) }
	// record writes an instant, or with durNS >= 0 a complete span.
	record := func(name string, pid int, tid, startNS, durNS int64, args string) {
		ph := `"i","s":"t"`
		dur := ""
		if durNS >= 0 {
			ph, dur = `"X"`, `,"dur":`+us(durNS)
		}
		fmt.Fprintf(bw, ",\n"+`{"name":"%s","ph":%s,"pid":%d,"tid":%d,"ts":%s%s,"args":{%s}}`,
			name, ph, pid, tid, us(startNS), dur, args)
	}

	for i, g := range doc.Groups {
		tid := int64(g.Group)
		if i == 0 || doc.Groups[i-1].Group != g.Group {
			meta(",\n", chromePidEngine, tid, "thread_name", fmt.Sprintf("group %d", g.Group))
		}
		notes := rootNotes(g, `,"cause":"%s"`, `,"%s":%d`)
		for _, c := range g.Children {
			switch {
			case c.Kind == SpanExec && c.Partial:
				record(fmt.Sprintf("group %d (unfinished)", g.Group), chromePidEngine, tid,
					c.StartNS, -1, strings.TrimPrefix(notes, ","))
			case c.Kind == SpanExec:
				record(fmt.Sprintf("group %d", g.Group), chromePidEngine, tid,
					c.StartNS, c.DurNS, fmt.Sprintf(`"outputs":%d%s`, c.Arg, notes))
			case c.Kind == SpanAux:
				record(c.Kind, chromePidEngine, tid, c.StartNS, c.DurNS, fmt.Sprintf(`"window":%d`, c.Arg))
			case c.Kind == SpanValidate:
				dur := c.DurNS
				if dur == 0 {
					dur = -1
				}
				record(c.Kind, chromePidEngine, tid, c.StartNS, dur,
					fmt.Sprintf(`"outcome":"%s","redos":%d`, c.Outcome, c.Redos))
				for _, r := range c.Children {
					record(r.Kind, chromePidEngine, tid, r.StartNS, -1, fmt.Sprintf(`"arg":%d`, r.Arg))
				}
			default:
				record(c.Kind, chromePidEngine, tid, c.StartNS, -1, fmt.Sprintf(`"arg":%d`, c.Arg))
			}
		}
	}
	for i, t := range tasks {
		tid := int64(t.Lane)
		if i == 0 || tasks[i-1].Lane != t.Lane {
			meta(",\n", chromePidScheduler, tid, "thread_name", fmt.Sprintf("worker %d", t.Lane))
		}
		name, dur := "task", t.EndNS-t.StartNS
		if t.Open {
			name, dur = "task (unfinished)", -1
		}
		record(name, chromePidScheduler, tid, t.StartNS, dur, "")
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
