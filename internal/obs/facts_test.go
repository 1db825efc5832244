package obs

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens (make catalogue: catalogue.golden from the fact table)")

// TestNoteMovesCounterAndEventTogether is the fact table's one test of
// "counter ≡ events": for every event kind, a single Note advances exactly
// that kind's counter (by one, or by the Arg for a by-Arg kind), emits
// exactly one event carrying the lane, group and arg it was given, and
// shows up on /metrics under the row's name and HELP line. A nil Observer
// takes the same calls and does nothing; neither path allocates.
func TestNoteMovesCounterAndEventTogether(t *testing.T) {
	const arg = 7
	o := NewObserver(2, 256)
	var want Counts
	for k := range want {
		kind, f := EventKind(k), EventKind(k).Fact()
		if kind == EvNone {
			continue
		}
		if f.Event == "" || f.Metric == "" || f.Help == "" {
			t.Fatalf("kind %d has an incomplete row: %+v", k, f)
		}
		o.Note(k, kind, int32(-k), arg)
		want[k] = 1
		if f.ByArg {
			want[k] = arg
		}
	}
	if got := o.Counts(); got != want {
		t.Fatalf("counters after one Note per kind:\n got %v\nwant %v", got, want)
	}
	events := o.Tracer.Snapshot()
	if len(events) != len(want)-1 {
		t.Fatalf("%d events for %d kinds", len(events), len(want)-1)
	}
	for _, e := range events {
		if int(e.Lane) != int(e.Kind) || e.Group != -int32(e.Kind) || e.Arg != arg {
			t.Fatalf("event does not carry what Note was given: %+v", e)
		}
	}
	text := o.Reg.Text()
	for k, f := range Catalogue() {
		if !strings.Contains(text, "# HELP "+f.Metric+" "+f.Help+"\n") {
			t.Fatalf("row %d (%s): HELP line missing from the exposition", k, f.Metric)
		}
		sample := f.Metric + " 1\n"
		if f.ByArg {
			sample = f.Metric + " 7\n"
		}
		if f.Event != "" && !strings.Contains(text, "\n"+sample) {
			t.Fatalf("row %d (%s): sample missing from the exposition:\n%s", k, f.Metric, text)
		}
	}

	var off *Observer
	if allocs := testing.AllocsPerRun(100, func() {
		off.Note(0, EvRedo, 1, 1)
		o.Note(0, EvRedo, 1, 1)
	}); allocs != 0 {
		t.Fatalf("Note allocates %.0f times per call pair", allocs)
	}
}

// catalogue renders Catalogue as the Markdown reference table that
// testdata/catalogue.golden pins and DESIGN.md and README.md carry.
func catalogue() string {
	var b strings.Builder
	b.WriteString("| metric | HELP | event kind | `Stats` field | advances by |\n|---|---|---|---|---|\n")
	for _, f := range Catalogue() {
		event, stats, by := "—", "—", "—"
		if f.Event != "" {
			event, by = "`"+f.Event+"`", "1 per event"
			if f.ByArg {
				by = "the event's `Arg`"
			}
		}
		if f.Stats != "" {
			stats = "`" + f.Stats + "`"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", f.Metric, f.Help, event, stats, by)
	}
	return b.String()
}

// TestCatalogueGolden pins the generated metric catalogue; regenerate with
// `make catalogue` after editing the fact table, and paste the new table
// into DESIGN.md and README.md (the root docs test compares them).
func TestCatalogueGolden(t *testing.T) {
	const path = "testdata/catalogue.golden"
	got := catalogue()
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
		t.Fatalf("catalogue drifted from %s (run `make catalogue`):\n%s", path, got)
	}
}
