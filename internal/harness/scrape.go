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

// ScrapeCounters is the speculation-counter set the reconciliation
// compares across its three sources: the live /metrics exposition, the
// observer's instruments, and the engine's own run statistics. The engine
// keeps no count of reservation commits: its ResvCommits is what the
// reservations pass's inputs leave once conventional and fallback inputs are
// taken out, so agreeing with the other two sources is the identity
// reservation commits + conventional inputs + fallback inputs = inputs.
type ScrapeCounters struct {
	Matches, Redos, Aborts, SpecCommits, ResvCommits, Conventional int64
}

// ScrapeResult is one benchmark's self-scrape reconciliation: the harness
// boots a telemetry server over the observer of two runs (the aux protocol,
// then reservations), scrapes its own /metrics endpoint while the engine is
// mid-run, and checks that the final exposition agrees exactly with the
// observer's instruments and the engine's Stats — the same numbers Table 1's
// runtime columns are built from.
type ScrapeResult struct {
	Name string
	// MidScrapes counts /metrics responses parsed while the run was in
	// flight (each must be a valid, internally-consistent exposition).
	MidScrapes int
	// Scraped, Observed and Engine are the counter set from the final
	// scrape, the observer, and core.Stats respectively.
	Scraped, Observed, Engine ScrapeCounters
	// P50ScrapedNS is the validation-latency median from the exposition's
	// quantile gauge; P50DirectNS the same read straight off the
	// histogram (Table 1's source).
	P50ScrapedNS, P50DirectNS int64
	// Reconciled is true when all three counter sources agree and the
	// scraped quantile equals the direct read.
	Reconciled bool
}

// reconciled checks the three-way agreement.
func (r ScrapeResult) reconciled() bool {
	return r.Scraped == r.Observed && r.Scraped == r.Engine &&
		r.P50ScrapedNS == r.P50DirectNS
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

// counterSet extracts the reconciliation counters from a parsed scrape.
func counterSet(m *telemetry.PromMetrics) ScrapeCounters {
	v := func(name string) int64 {
		f, _ := m.Value(name)
		return int64(f)
	}
	return ScrapeCounters{
		Matches:      v(obs.EvValidateMatch.Fact().Metric),
		Redos:        v(obs.EvRedo.Fact().Metric),
		Aborts:       v(obs.EvAbort.Fact().Metric),
		SpecCommits:  v("stats_speculative_commit_inputs_total"),
		ResvCommits:  v(obs.EvCommit.Fact().Metric),
		Conventional: v(obs.EvConventional.Fact().Metric),
	}
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
	srv := telemetry.NewServer(telemetry.Config{Observer: ob})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return ScrapeResult{}, err
	}
	defer srv.Close()

	opts := workload.SpecOptions{
		UseAux: true, GroupSize: 4, Window: 2,
		RedoMax: 2, Rollback: 2, Workers: workers, Obs: ob,
	}
	done := make(chan ScrapeCounters, 1)
	go func() {
		_, st := w.RunSTATS(e.Seed, e.RealSize, opts)
		resvOpts := opts
		resvOpts.Protocol = core.ProtocolReservations
		_, resv := w.RunSTATS(e.Seed, e.RealSize, resvOpts)
		done <- ScrapeCounters{
			Matches:      int64(st.Matches),
			Redos:        int64(st.Redos),
			Aborts:       int64(st.Aborts + resv.Aborts),
			SpecCommits:  int64(st.SpeculativeCommits + resv.SpeculativeCommits),
			ResvCommits:  int64(resv.Inputs - resv.ConventionalInputs - resv.FallbackInputs),
			Conventional: int64(resv.ConventionalInputs),
		}
	}()

	// Scrape our own endpoint while the engine runs: every mid-run
	// exposition must parse and satisfy the histogram invariants (the
	// parser enforces them); values may lag the instruments, which is the
	// point — the final scrape below is the one that must agree.
	res := ScrapeResult{Name: w.Desc().Name}
	var engine ScrapeCounters
	running := true
	for running {
		select {
		case engine = <-done:
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
	res.Scraped = counterSet(final)
	counts := ob.Counts()
	res.Observed = ScrapeCounters{
		Matches:      counts[obs.EvValidateMatch],
		Redos:        counts[obs.EvRedo],
		Aborts:       counts[obs.EvAbort],
		SpecCommits:  ob.SpecCommittedInputs.Value(),
		ResvCommits:  counts[obs.EvCommit],
		Conventional: counts[obs.EvConventional],
	}
	res.Engine = engine
	if p50, ok := final.Value("stats_validation_latency_ns_p50"); ok {
		res.P50ScrapedNS = int64(p50)
	}
	res.P50DirectNS = ob.ValidationLatencyNS.Quantile(0.5)
	res.Reconciled = res.reconciled()
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
			fmt.Sprintf("%d", r.Scraped.Matches),
			fmt.Sprintf("%d", r.Scraped.Redos),
			fmt.Sprintf("%d", r.Scraped.Aborts),
			fmt.Sprintf("%d", r.Scraped.SpecCommits),
			fmt.Sprintf("%d", r.Scraped.ResvCommits),
			fmt.Sprintf("%d", r.Scraped.Conventional),
			fmtLatencyNS(r.P50ScrapedNS),
			fmt.Sprintf("%v", r.Reconciled),
		)
	}
	t.AddNote("each benchmark ran once per protocol under a live telemetry server scraping its own /metrics; counters shown are from the final scrape and must equal both the observer's instruments and the engine's Stats (Table 1's runtime columns draw from the same sources)")
	return t, nil
}
