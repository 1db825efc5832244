package harness

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ScrapeResult is one benchmark's self-scrape reconciliation: the harness
// boots one telemetry server over the observer of two runs (the aux
// protocol, then reservations), scrapes its own /metrics endpoint while the
// engine is mid-run, and checks that the final exposition, the observer's
// instruments and event log, and the engine's Stats agree on every row of
// the fact table — the same numbers Table 1's runtime columns are built from.
type ScrapeResult struct {
	Name string
	// Stats sums the two runs' engine statistics (Stats.Add).
	core.Stats
	// MidScrapes counts /metrics responses parsed while the run was in
	// flight (each must be a valid, internally-consistent exposition).
	MidScrapes int
	// ResvCommits is the observer's count of inputs the reservations
	// coordinator committed (the engine keeps no such count).
	ResvCommits int64
	// P50ScrapedNS is the validation-latency median from the exposition's
	// quantile gauge; P50DirectNS the same read straight off the
	// histogram (Table 1's source).
	P50ScrapedNS, P50DirectNS int64
	// Reconciled is true when telemetry.Reconcile finds every account in
	// agreement over the final scrape and the scraped quantile equals the
	// direct read.
	Reconciled bool
}

// scrapeOnce fetches and structurally parses one /metrics exposition.
func scrapeOnce(url string) (*telemetry.PromMetrics, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return telemetry.ParsePromText(string(body))
}

// ScrapeReconcile runs every STATS target once with a telemetry server up
// over the run's observer, scraping its own /metrics mid-run, and
// reconciles the live exposition against the observer and the engine
// statistics.
func ScrapeReconcile(e *Env) ([]ScrapeResult, error) {
	var out []ScrapeResult
	for _, w := range e.Targets() {
		d := w.Desc()
		if !d.SupportsSTATS {
			continue
		}
		r, err := scrapeReconcileOne(e, w)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", d.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// scrapeReconcileOne runs one workload under a live telemetry server.
func scrapeReconcileOne(e *Env, w workload.Workload) (ScrapeResult, error) {
	const workers = 4
	ob := obs.NewObserver(workers+1, 1<<14)
	srv := telemetry.NewServer(telemetry.Config{Signals: telemetry.NewSignals(ob, telemetry.SignalsConfig{})})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return ScrapeResult{}, err
	}
	defer srv.Close()

	opts := workload.SpecOptions{
		UseAux: true, GroupSize: 4, Window: 2,
		RedoMax: 2, Rollback: 2, Workers: workers, Obs: ob,
	}
	done := make(chan core.Stats, 1)
	go func() {
		_, st := w.RunSTATS(e.Seed, e.RealSize, opts)
		resvOpts := opts
		resvOpts.Protocol = core.ProtocolReservations
		_, resv := w.RunSTATS(e.Seed, e.RealSize, resvOpts)
		st.Add(resv)
		done <- st
	}()

	// Scrape our own endpoint while the engine runs: every mid-run
	// exposition must parse and satisfy the histogram invariants (the
	// parser enforces them); values may lag the instruments, which is the
	// point — the final scrape below is the one that must agree.
	res := ScrapeResult{Name: w.Desc().Name}
	running := true
	for running {
		select {
		case res.Stats = <-done:
			running = false
		default:
			if _, err := scrapeOnce(srv.URL()); err != nil {
				return res, fmt.Errorf("mid-run scrape %d: %w", res.MidScrapes, err)
			}
			res.MidScrapes++
			time.Sleep(2 * time.Millisecond)
		}
	}

	final, err := scrapeOnce(srv.URL())
	if err != nil {
		return res, fmt.Errorf("final scrape: %w", err)
	}
	res.ResvCommits = ob.Counts()[obs.EvCommit]
	if p50, ok := final.Value("stats_validation_latency_ns_p50"); ok {
		res.P50ScrapedNS = int64(p50)
	}
	res.P50DirectNS = ob.ValidationLatencyNS.Quantile(0.5)
	res.Reconciled = telemetry.Reconcile(res.Stats, ob, final) == nil && res.P50ScrapedNS == res.P50DirectNS
	return res, nil
}

// ScrapeTable renders the reconciliation as an experiment table.
func ScrapeTable(e *Env) (*Table, error) {
	res, err := ScrapeReconcile(e)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Self-scrape — live /metrics vs engine statistics",
		Columns: []string{
			"mid scrapes", "matches", "redos", "aborts", "spec commits",
			"resv commits", "conventional", "val p50", "reconciled",
		},
	}
	for _, r := range res {
		t.AddRow(r.Name,
			fmt.Sprintf("%d", r.MidScrapes),
			fmt.Sprintf("%d", r.Matches),
			fmt.Sprintf("%d", r.Redos),
			fmt.Sprintf("%d", r.Aborts),
			fmt.Sprintf("%d", r.SpeculativeCommits),
			fmt.Sprintf("%d", r.ResvCommits),
			fmt.Sprintf("%d", r.ConventionalInputs),
			fmtLatencyNS(r.P50ScrapedNS),
			fmt.Sprintf("%v", r.Reconciled),
		)
	}
	t.AddNote("each benchmark ran once per protocol under a live telemetry server scraping its own /metrics; counters shown are the engine's Stats (resv commits: the observer's commit count), and every fact-table row must agree across the final scrape, the observer's instruments, its event log and the Stats (Table 1's runtime columns draw from the same sources)")
	return t, nil
}
