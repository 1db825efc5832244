// Command statsexp regenerates the paper's tables and figures (§4) and runs
// the repository's rigs (self-scrape reconciliation, chaos, schedule
// exploration, ablation): the experiments of harness.Experiments, each
// printing the same rows/series the paper reports.
//
// Usage:
//
//	statsexp -exp all            # every experiment, in the list's order
//	statsexp -exp fig12          # one experiment
//	statsexp -exp fig12 -quick   # scaled-down budgets (for smoke tests)
//
// -help lists the experiment IDs; -schedules sizes explore's per-row sweep.
// An unknown -exp or -format, or a negative -schedules, exits 2 before any
// experiment runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/harness"
)

func main() {
	ids := "all"
	for _, x := range harness.Experiments {
		ids += ", " + x.ID
	}
	formats := strings.Join(harness.Formats, ", ")
	exp := flag.String("exp", "all", "experiment: one of "+ids)
	quick := flag.Bool("quick", false, "use scaled-down budgets")
	seed := flag.Uint64("seed", 0, "override the experiment seed (0 keeps the default)")
	schedules := flag.Int("schedules", 0, "explore: controlled schedules per row (0 keeps the default)")
	format := flag.String("format", "text", "output format: one of "+formats)
	flag.Parse()

	run := harness.Experiments
	if id := strings.ToLower(*exp); id != "all" {
		i := slices.IndexFunc(run, func(x harness.Experiment) bool { return x.ID == id })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "statsexp: unknown experiment %q (want one of %s)\n", *exp, ids)
			os.Exit(2)
		}
		run = run[i : i+1]
	}
	if !slices.Contains(harness.Formats, *format) {
		fmt.Fprintf(os.Stderr, "statsexp: unknown format %q (want one of %s)\n", *format, formats)
		os.Exit(2)
	}
	if *schedules < 0 {
		fmt.Fprintf(os.Stderr, "statsexp: -schedules %d: want at least 0\n", *schedules)
		os.Exit(2)
	}

	e := harness.NewEnv(*quick)
	if *seed != 0 {
		e.Seed = *seed
	}
	if *schedules > 0 {
		e.Schedules = *schedules
	}
	for _, x := range run {
		tables, err := x.Run(e)
		for _, t := range tables {
			if werr := t.Write(os.Stdout, *format); werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "statsexp: %s: %v\n", x.ID, err)
			os.Exit(1)
		}
	}
}
