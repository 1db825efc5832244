package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/mathx"
)

// verdicts of one (metric, workload) comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// loadRecords reads the untraced records of a JSON-lines result set,
// grouped by workload.
func loadRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sets := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			sets[r.Workload] = append(sets[r.Workload], r)
		}
	}
	return sets, sc.Err()
}

// judge compares the runs of one metric on one workload: base is the
// reference set, cand the set under judgement. change is the relative
// move of the median in the worsening direction (positive is worse), with
// the base median as its base.
//
// The verdict is unresolved when the two sets' quartile ranges overlap by
// more than the bound — the host's noise then exceeds what the bound can
// tell apart — unless every candidate run is at least as good as every
// base run. Otherwise it is worse when the change exceeds the bound.
func judge(d metricDef, base, cand []float64) (change float64, verdict string) {
	bq1, bmed, bq3 := quartiles(base)
	cq1, cmed, cq3 := quartiles(cand)
	sign := 1.0
	if d.better == "higher" {
		sign = -1
	}
	scale := math.Abs(bmed)
	if scale == 0 {
		scale = 1
	}
	change = sign*(cmed-bmed)/scale + 0 // + 0 turns a negative zero positive
	overlap := (math.Min(bq3, cq3) - math.Max(bq1, cq1)) / scale
	if overlap > d.bound {
		worstCand, bestBase := sorted(cand), sorted(base)
		if sign > 0 && worstCand[len(worstCand)-1] <= bestBase[0] ||
			sign < 0 && worstCand[0] >= bestBase[len(bestBase)-1] {
			return change, verdictOK
		}
		return change, verdictUnresolved
	}
	if change > d.bound {
		return change, verdictWorse
	}
	return change, verdictOK
}

// compareFiles prints, per end-to-end metric and workload, both sets'
// medians, the relative change with its base, the bound and the verdict,
// then each set's telemetry overhead, and reports whether anything is
// worse: a metric beyond its bound, or a workload with a larger share of
// failed calls.
func compareFiles(w io.Writer, basePath, candPath string) (worse bool, err error) {
	base, err := loadRecords(basePath)
	if err != nil {
		return false, err
	}
	cand, err := loadRecords(candPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-9s %-22s %5s %13s %13s %9s %7s  %s\n",
		"workload", "metric", "runs", "base median", "cand median", "change", "bound", "verdict")
	for _, def := range workloads() {
		b, c := base[def.name], cand[def.name]
		if len(b) == 0 || len(c) == 0 {
			fmt.Fprintf(w, "%-9s missing from one set (%d and %d runs)\n", def.name, len(b), len(c))
			continue
		}
		for _, d := range endToEnd {
			bv, cv := metricColumn(b, d.name), metricColumn(c, d.name)
			change, verdict := judge(d, bv, cv)
			worse = worse || verdict == verdictWorse
			fmt.Fprintf(w, "%-9s %-22s %2d/%-2d %13.6g %13.6g %+8.2f%% %6.0f%%  %s\n",
				def.name, d.name, len(bv), len(cv), mathx.Median(bv), mathx.Median(cv), 100*change, 100*d.bound, verdict)
		}
		bf, cf := failedFrac(b), failedFrac(c)
		verdict := verdictOK
		if cf > bf {
			verdict, worse = verdictWorse, true
		}
		fmt.Fprintf(w, "%-9s %-22s %2d/%-2d %13.6g %13.6g %9s %7s  %s\n",
			def.name, "failed_frac", len(b), len(c), bf, cf, "", "any", verdict)
	}
	fmt.Fprintln(w, "telemetry.overhead_frac = 1 - inputs_per_s(observed) / inputs_per_s(fine), run k of one against run k of the other; stated, not judged")
	for _, set := range []struct {
		name string
		recs map[string][]record
	}{{"base", base}, {"cand", cand}} {
		over := telemetryOverhead(set.recs)
		q1, med, q3 := quartiles(over)
		fmt.Fprintf(w, "  %s: median %+.4f, quartiles %+.4f to %+.4f over %d pairs of runs\n", set.name, med, q1, q3, len(over))
	}
	return worse, nil
}

// telemetryOverhead is the share of fine's inputs_per_s that observed, the
// same cases with obs and telemetry enabled, gives up: one value per pair
// of runs, the k-th of each workload.
func telemetryOverhead(set map[string][]record) []float64 {
	fine := metricColumn(set["fine"], "inputs_per_s")
	observed := metricColumn(set["observed"], "inputs_per_s")
	out := make([]float64, min(len(fine), len(observed)))
	for k := range out {
		out[k] = 1 - observed[k]/fine[k]
	}
	return out
}

// metricColumn is one metric's value in every run of a set.
func metricColumn(rs []record, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Report.Metrics[name].Value)
	}
	return out
}

// failedFrac is failed ÷ attempted calls over a set's runs.
func failedFrac(rs []record) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Report.Failed
		attempted += r.Report.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}
