package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/mathx"
	"repro/internal/midend"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/taskgen"
	"repro/internal/workload"
)

// table1Result is one benchmark's developer-effort accounting: its
// descriptor's Table 1 columns (OriginalLOC, NumDeps, TradeoffLOC,
// ComparisonLOC) and what compiling its declaration and running it measure.
type table1Result struct {
	workload.Descriptor
	// GeneratedLOC is the code generated by the STATS compilers for the
	// benchmark's extension blocks (front-end header + lowered source +
	// middle-end clones), and SizeIncrease the binary-size growth.
	GeneratedLOC int
	SizeIncrease float64
	// ExtraCommitted is the fraction of extra instructions committed at
	// run time by auxiliary code and the runtime (measured from a real
	// engine run).
	ExtraCommitted float64
	// WastedWorkRatio is the fraction of lane CPU-time the observed runs
	// spent on work whose results were discarded (aborted, squashed,
	// timed out, or lost a reservation) — the price actually paid for
	// speculating, from the wasted-work attribution counters.
	WastedWorkRatio float64
	// ValidationP50NS and ValidationP99NS are the median and tail
	// validation latency (ns) observed across the same real runs, from
	// the observability layer's log-scale histogram. Zero when the runs
	// never reached a validation (speculation disabled or unsupported).
	ValidationP50NS int64
	ValidationP99NS int64
	// PanickedGroups counts speculative groups squashed by contained
	// user-code panics across the same real runs — the fault-isolation
	// layer's contribution to the overhead story (normally 0: a healthy
	// benchmark run panics nowhere).
	PanickedGroups int
	// AuxWallNS and ResvWallNS race the two speculation protocols over the
	// benchmark's autotuned configuration (one timed run each, same seed
	// and shape); ResvRounds is the reservation rounds the second run took
	// (0 when the tuned configuration disables speculation).
	AuxWallNS, ResvWallNS int64
	ResvRounds            int
	// ResvCommitsPerRound is the mean inputs committed per reservation
	// round in the same run — 1.0 means the whole-state single-slot
	// fallback (fully serialized), >1 means the dependence's slot
	// footprints actually overlapped-committed disjoint inputs.
	ResvCommitsPerRound float64
}

// table1 produces the developer-effort table by actually running the
// compiler pipeline on each benchmark's declaration (Descriptor.Declaration)
// and a real engine run for the committed-instruction overhead.
func table1(e *Env) ([]table1Result, error) {
	var out []table1Result
	for _, w := range e.Targets() {
		d := w.Desc()
		fo, err := frontend.Translate(d.Declaration)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", d.Name, err)
		}
		m, err := midend.Lower(fo)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", d.Name, err)
		}
		p, err := backend.Compile(m, nil)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", d.Name, err)
		}
		// Extra committed instructions: the share of run-time work the
		// auxiliary code and runtime add on a real run of the workload's
		// autotuned configuration (so fluidanimate, whose tuner disables
		// speculation, pays ~nothing — the paper's <0.1% rows).
		extra, waste := 0.0, 0.0
		var valP50, valP99 int64
		panicked := 0
		var auxNS, resvNS int64
		resvRounds := 0
		resvCommitsPerRound := 0.0
		if d.SupportsSTATS {
			_, opts, _ := e.TunedSTATS(w, taskgen.ParSTATS, 28, profiler.Time)
			opts.Workers = 4
			// Observe the runs: the validation-latency histogram feeds the
			// table's p50/p99 columns.
			ob := obs.NewObserver(opts.Workers+1, 256)
			opts.Obs = ob
			// Median across seeds: an occasional abort squashes half
			// the run and would otherwise dominate the estimate.
			var samples []float64
			for run := 0; run < 5; run++ {
				_, st := w.RunSTATS(e.Seed+uint64(run)*31, e.Size, opts)
				panicked += st.PanickedGroups
				if st.UsefulInvocations == 0 {
					continue
				}
				// Weight auxiliary inputs by their actual per-input
				// cost relative to an original invocation (the
				// autotuner picks cheap auxiliary tradeoffs, so an
				// aux input commits far fewer instructions).
				m := w.CostModel(e.Size, opts)
				auxRel := 0.0
				if win := opts.Window; win > 0 && m.InvocationWork > 0 {
					auxRel = m.AuxWork / float64(win) / m.InvocationWork
				}
				samples = append(samples, profiler.AttributeOverhead(st, auxRel).ExtraCommitted)
			}
			extra = mathx.Median(samples)
			valP50 = ob.ValidationLatencyNS.Quantile(0.5)
			valP99 = ob.ValidationLatencyNS.Quantile(0.99)
			counts := ob.Counts()
			if cw := counts[obs.EvLaneCPUCommitted] + counts[obs.EvLaneCPUWasted]; cw > 0 {
				waste = float64(counts[obs.EvLaneCPUWasted]) / float64(cw)
			}

			// Protocol race: the same tuned shape once per protocol,
			// unobserved, same seed — the reservations column shows what
			// the no-aux protocol costs on this benchmark's dependence.
			// Speculation is forced on with a meaningful group so the race
			// measures the protocols rather than a tuner that disabled
			// speculation (reservations need UseAux and a group to form
			// rounds at all).
			raceOpts := opts
			raceOpts.Obs = nil
			raceOpts.UseAux = true
			if raceOpts.GroupSize < 8 {
				raceOpts.GroupSize = 8
			}
			start := time.Now()
			w.RunSTATS(e.Seed, e.Size, raceOpts)
			auxNS = time.Since(start).Nanoseconds()
			raceOpts.Protocol = core.ProtocolReservations
			start = time.Now()
			_, rst := w.RunSTATS(e.Seed, e.Size, raceOpts)
			resvNS = time.Since(start).Nanoseconds()
			resvRounds = rst.Rounds
			if rst.Rounds > 0 {
				// Inputs a conventional streak committed ran no round.
				resvCommitsPerRound = float64(rst.UsefulInvocations-int64(rst.ConventionalInputs)) / float64(rst.Rounds)
			}
		}
		out = append(out, table1Result{
			Descriptor:          d,
			GeneratedLOC:        fo.GeneratedLOC + m.InstrCount(), // header + lowered + IR clones
			SizeIncrease:        p.SizeIncrease,
			ExtraCommitted:      extra,
			WastedWorkRatio:     waste,
			ValidationP50NS:     valP50,
			ValidationP99NS:     valP99,
			PanickedGroups:      panicked,
			AuxWallNS:           auxNS,
			ResvWallNS:          resvNS,
			ResvRounds:          resvRounds,
			ResvCommitsPerRound: resvCommitsPerRound,
		})
	}
	return out, nil
}

// fmtCommitsPerRound renders the reservations commits-per-round mean,
// "-" when the run formed no rounds.
func fmtCommitsPerRound(v float64) string {
	if v <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

// fmtLatencyNS renders a nanosecond latency for the table, "-" when the
// runs produced no validations to measure.
func fmtLatencyNS(ns int64) string {
	switch {
	case ns <= 0:
		return "-"
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}

// table1Table renders Table 1.
func table1Table(e *Env) ([]*Table, error) {
	res, err := table1(e)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Table 1 — Developer effort vs compiler-generated code",
		Columns: []string{
			"orig LOC", "deps", "LOC/tradeoff (mod/add)", "cmp LOC",
			"generated", "size incr", "extra committed",
			"waste%", "val p50", "val p99", "panicked", "aux wall",
			"resv wall", "commits/rnd",
		},
	}
	for _, r := range res {
		var per []string
		for _, la := range r.TradeoffLOC {
			per = append(per, fmt.Sprintf("%d/%d", la[0], la[1]))
		}
		t.AddRow(r.Name,
			fmt.Sprintf("%d", r.OriginalLOC),
			fmt.Sprintf("%d", r.NumDeps),
			strings.Join(per, " "),
			fmt.Sprintf("%d", r.ComparisonLOC),
			fmt.Sprintf("%d", r.GeneratedLOC),
			fmt.Sprintf("%.0f%%", 100*r.SizeIncrease),
			fmt.Sprintf("%.1f%%", 100*r.ExtraCommitted),
			fmt.Sprintf("%.1f%%", 100*r.WastedWorkRatio),
			fmtLatencyNS(r.ValidationP50NS),
			fmtLatencyNS(r.ValidationP99NS),
			fmt.Sprintf("%d", r.PanickedGroups),
			fmtLatencyNS(r.AuxWallNS),
			fmtLatencyNS(r.ResvWallNS),
			fmtCommitsPerRound(r.ResvCommitsPerRound),
		)
	}
	t.AddNote("developer LOC per tradeoff is Table 1's; generated code and size increase come from this repository's compiler pipeline; extra committed instructions, the wasted-work share (discarded lane CPU over all lane CPU), the validation-latency percentiles and the contained-panic count from real speculative runs; the last three columns race the aux protocol against deterministic reservations over the same tuned shape — commits/rnd above 1 means the benchmark's slot footprints let reservations commit several inputs per round")
	return []*Table{t}, nil
}
