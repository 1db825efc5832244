package harness

import (
	"strings"
	"testing"
)

// TestScrapeReconcile runs the self-scrape experiment at quick scale: for
// every STATS target, mid-run scrapes must parse, and the final live
// exposition must agree exactly with the observer's instruments, its event
// log and the engine's own statistics — the Table 1 runtime columns and the served
// /metrics view are the same numbers.
func TestScrapeReconcile(t *testing.T) {
	e := NewEnv(true)
	res, err := scrapeReconcile(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no STATS targets reconciled")
	}
	committed := 0
	for _, r := range res {
		if !r.Reconciled {
			t.Errorf("%s: engine %+v, p50 %d vs %d — sources disagree",
				r.Name, r.Stats, r.P50ScrapedNS, r.P50DirectNS)
		}
		if r.SpeculativeCommits > 0 {
			committed++
		}
	}
	// Some targets legitimately speculate nothing at these fixed options
	// (fluidanimate's validations reject); the reconciliation must still
	// be exercised by real speculative traffic somewhere.
	if committed == 0 {
		t.Error("no target committed speculatively; reconciliation is vacuous")
	}
}

// TestScrapeTable keeps the statsexp rendering stable.
func TestScrapeTable(t *testing.T) {
	e := NewEnv(true)
	tables, err := scrapeTable(e)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range tables {
		tab.Render(&b)
	}
	out := b.String()
	if !strings.Contains(out, "reconciled") || !strings.Contains(out, "swaptions") {
		t.Errorf("scrape table missing expected content:\n%s", out)
	}
	if strings.Contains(out, "false") {
		t.Errorf("scrape table reports an unreconciled benchmark:\n%s", out)
	}
}
