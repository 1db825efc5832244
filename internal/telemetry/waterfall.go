package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// waterfallBarWidth is the chart's default width in character cells.
const waterfallBarWidth = 40

// RenderWaterfall writes a span document as a waterfall, the one ASCII
// chart of an observed run: one bar per speculation group on a shared
// time axis, each overlaid with its phases ('=' executing, 'a' aux,
// 'v' validating, 'x' first rejection, 'r' redo, 'A' abort, 'S' squash,
// 'F' fallback), followed by the group's phase chain in start order and
// its wasted-work share; then, given the log's lane tasks, one row per
// scheduler lane on the same axis ('L' a dispatch, '-' the task running
// until its finish). The footer names the run's
// critical path — the longest group lifecycle — phase by phase: the chain
// an engineer shortens first when the profile says speculation is not
// paying. width is the bar width in cells (<= 0: 40); rows > 0 caps the
// group rows drawn. Deterministic for a given document.
func RenderWaterfall(w io.Writer, doc *SpanDoc, tasks []LaneTask, width, rows int) {
	if len(doc.Groups) == 0 {
		fmt.Fprintln(w, "waterfall: no groups")
		return
	}
	if width <= 0 {
		width = waterfallBarWidth
	}

	lo, hi := doc.Groups[0].StartNS, doc.Groups[0].EndNS
	var committed, wasted int64
	for _, g := range doc.Groups {
		lo, hi = min(lo, g.StartNS), max(hi, g.EndNS)
		committed += g.CPUCommittedNS
		wasted += g.CPUWastedNS
	}
	for _, t := range tasks {
		lo, hi = min(lo, t.StartNS), max(hi, t.EndNS)
	}
	span := max(hi-lo, 1)
	col := func(ts int64) int {
		return int(min(max((ts-lo)*int64(width)/span, 0), int64(width-1)))
	}
	blank := func() []byte { return bytes.Repeat([]byte{'.'}, width) }

	fmt.Fprintf(w, "waterfall: %d groups (%d partial), span %s",
		len(doc.Groups), doc.PartialGroups, fmtNS(span))
	if committed+wasted > 0 {
		fmt.Fprintf(w, ", lane cpu committed=%s wasted=%s (waste %.0f%%)",
			fmtNS(committed), fmtNS(wasted),
			100*float64(wasted)/float64(committed+wasted))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "groups: '=' executing, a aux, v validating, x first rejection, r redo, A abort, S squash, F fallback")

	var critical *Span
	for i, g := range doc.Groups {
		if critical == nil || g.DurNS > critical.DurNS {
			critical = g
		}
		if rows > 0 && i >= rows {
			continue
		}
		row := blank()
		// Duration-bearing phases first, instants on top so they stay
		// visible inside a long bar; the abort last, never overdrawn.
		for _, c := range g.Children {
			switch c.Kind {
			case SpanExec:
				for i := col(c.StartNS); i <= col(c.EndNS); i++ {
					row[i] = '='
				}
			case SpanValidate:
				for i := col(c.StartNS); i <= col(c.EndNS); i++ {
					row[i] = 'v'
				}
			}
		}
		abort := -1
		for _, c := range g.Children {
			switch c.Kind {
			case SpanAux:
				// On top of the execution it precedes: a short aux shares
				// its cell with the group's start.
				for i := col(c.StartNS); i <= col(c.EndNS); i++ {
					row[i] = 'a'
				}
			case SpanValidate:
				if c.Outcome != "match" {
					row[col(c.StartNS)] = 'x'
				}
				for _, r := range c.Children {
					row[col(r.StartNS)] = 'r'
				}
				if c.Outcome == "abort" {
					abort = col(c.EndNS)
				}
			case SpanSquash:
				row[col(c.StartNS)] = 'S'
			case SpanFallback:
				row[col(c.StartNS)] = 'F'
			}
		}
		if abort >= 0 {
			row[abort] = 'A'
		}
		waste := ""
		if g.CPUCommittedNS+g.CPUWastedNS > 0 {
			waste = fmt.Sprintf(" waste=%.0f%%",
				100*float64(g.CPUWastedNS)/float64(g.CPUCommittedNS+g.CPUWastedNS))
		}
		fmt.Fprintf(w, "g%03d |%s| %s %s%s%s\n", g.Group, row,
			fmtNS(g.DurNS), g.Outcome, waste, partialMark(g))
		fmt.Fprintf(w, "     %s\n", chainString(g))
	}
	if rows > 0 && len(doc.Groups) > rows {
		fmt.Fprintf(w, "... (%d more groups)\n", len(doc.Groups)-rows)
	}

	if len(tasks) > 0 {
		fmt.Fprintln(w, "lanes: L dispatch, '-' task running")
	}
	var row []byte
	for i, t := range tasks {
		if i == 0 || tasks[i-1].Lane != t.Lane {
			row = blank()
		}
		c := col(t.StartNS)
		row[c] = 'L'
		for j, end := c+1, col(t.EndNS); j <= end; j++ { // an open task ends where it starts
			if row[j] == '.' {
				row[j] = '-'
			}
		}
		if i == len(tasks)-1 || tasks[i+1].Lane != t.Lane {
			fmt.Fprintf(w, "w%03d |%s|\n", t.Lane, row)
		}
	}

	fmt.Fprintf(w, "critical path: g%03d %s (total %s)\n",
		critical.Group, chainString(critical), fmtNS(critical.DurNS))
}

// chainString renders a group's phase chain in start order.
func chainString(g *Span) string {
	var parts []string
	for _, c := range g.Children {
		switch c.Kind {
		case SpanAux:
			parts = append(parts, fmt.Sprintf("aux %s", fmtNS(c.DurNS)))
		case SpanExec:
			parts = append(parts, fmt.Sprintf("exec %s", fmtNS(c.DurNS)))
		case SpanValidate:
			p := fmt.Sprintf("validate %s %s", fmtNS(c.DurNS), c.Outcome)
			if c.Redos > 0 {
				p += fmt.Sprintf(" redos=%d", c.Redos)
			}
			parts = append(parts, p)
		case SpanSquash:
			parts = append(parts, fmt.Sprintf("squash inputs=%d", c.Arg))
		case SpanFallback:
			parts = append(parts, fmt.Sprintf("fallback inputs=%d", c.Arg))
		}
	}
	if len(parts) == 0 {
		parts = []string{"(no observed phases)"}
	}
	return strings.Join(parts, " -> ") + rootNotes(g, " cause=%s", " %s=%d")
}
