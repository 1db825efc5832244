package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mathx"
	"repro/internal/related"
	"repro/internal/taskgen"
)

// quickEnv is a fresh scaled-down Env. The figure tests that assert on a
// quickEnv of their own and on no clock run in parallel with each other
// (t.Parallel), after the tests that time or serve something have run alone.
func quickEnv() *Env { return NewEnv(true) }

func TestFig02AllBenchmarksVary(t *testing.T) {
	t.Parallel()
	e := quickEnv()
	res := fig02(e)
	if len(res) != 7 {
		t.Fatalf("benchmarks: %d", len(res))
	}
	for _, r := range res {
		if r.Variability <= 0 {
			t.Fatalf("%s shows no output variability", r.Name)
		}
		if r.Source != "race" && r.Source != "prvg" {
			t.Fatalf("%s: bad variability source %q", r.Name, r.Source)
		}
	}
}

func TestFig03OriginalsUnderIdeal(t *testing.T) {
	e := quickEnv()
	for _, r := range fig03(e) {
		if r.Speedup <= 1 {
			t.Fatalf("%s original speedup %v not above sequential", r.Name, r.Speedup)
		}
		if r.Speedup > 28 {
			t.Fatalf("%s original speedup %v above ideal", r.Name, r.Speedup)
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	e := quickEnv()
	res, err := table1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("rows: %d", len(res))
	}
	for _, r := range res {
		// Developer LOC is small; generated code dwarfs it (the
		// paper's headline for this table).
		devLOC := r.ComparisonLOC
		for _, la := range r.TradeoffLOC {
			devLOC += la[0] + la[1]
		}
		if r.GeneratedLOC <= devLOC {
			t.Fatalf("%s: generated %d not above developer %d", r.Name, r.GeneratedLOC, devLOC)
		}
		if r.SizeIncrease <= 0 {
			t.Fatalf("%s: size increase %v", r.Name, r.SizeIncrease)
		}
		if r.ExtraCommitted < 0 || r.ExtraCommitted > 1.5 {
			t.Fatalf("%s: extra committed %v out of plausible range", r.Name, r.ExtraCommitted)
		}
		if r.AuxWallNS <= 0 || r.ResvWallNS <= 0 {
			t.Fatalf("%s: protocol race not timed: aux %d resv %d", r.Name, r.AuxWallNS, r.ResvWallNS)
		}
	}
	// The slotted formulations (swaptions per-instrument, streamcluster
	// shards, fluidanimate sub-fluids, streamclassifier ensemble) must
	// actually overlap commits under reservations: more than one input
	// committed per round on average, not the single-slot serialized
	// fallback.
	slotted := map[string]bool{
		"swaptions": true, "streamcluster": true,
		"fluidanimate": true, "streamclassifier": true,
	}
	for _, r := range res {
		if !slotted[r.Name] {
			continue
		}
		if r.ResvRounds == 0 {
			t.Fatalf("%s: no reservation rounds formed", r.Name)
		}
		if r.ResvCommitsPerRound <= 1 {
			t.Fatalf("%s: %.2f commits/round under reservations; slots are not overlapping commits", r.Name, r.ResvCommitsPerRound)
		}
	}
}

func TestFig12And13Shapes(t *testing.T) {
	t.Parallel()
	e := quickEnv()
	series := fig12(e)
	byName := map[string]fig12Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	last := len(e.Threads) - 1

	// Headline: Par. STATS beats the original overall at 28 threads.
	gm := fig13(e)
	if gm.ParSTATS[last] <= gm.Original[last] {
		t.Fatalf("Par. STATS geomean %v not above original %v", gm.ParSTATS[last], gm.Original[last])
	}
	boost := gm.ParSTATS[last] / gm.Original[last]
	if boost < 1.5 {
		t.Fatalf("STATS boost only %vx; paper's shape is >2x", boost)
	}

	// fluidanimate: STATS matches the original (aux always aborts and
	// the tuner falls back to the original TLP).
	fl := byName["fluidanimate"]
	if fl.ParSTATS[last] < fl.Original[last]*0.9 {
		t.Fatalf("fluidanimate Par. STATS %v fell below original %v", fl.ParSTATS[last], fl.Original[last])
	}
	if fl.ParSTATS[last] > fl.Original[last]*1.3 {
		t.Fatalf("fluidanimate gained %v -> %v; the paper shows little/no improvement",
			fl.Original[last], fl.ParSTATS[last])
	}

	// swaptions: Seq. STATS underperforms the original at low core
	// counts, Par. STATS wins at the top end.
	sw := byName["swaptions"]
	if sw.SeqSTATS[0] >= sw.Original[0] {
		t.Fatalf("swaptions Seq. STATS %v should trail original %v at %d threads",
			sw.SeqSTATS[0], sw.Original[0], e.Threads[0])
	}
	if sw.ParSTATS[last] <= sw.Original[last] {
		t.Fatalf("swaptions Par. STATS %v should beat original %v at 28 threads",
			sw.ParSTATS[last], sw.Original[last])
	}

	// bodytrack: state-dependence TLP alone beats the sync-heavy
	// original parallelization.
	bt := byName["bodytrack"]
	if bt.SeqSTATS[last] <= bt.Original[last] {
		t.Fatalf("bodytrack Seq. STATS %v should beat original %v", bt.SeqSTATS[last], bt.Original[last])
	}

	// facedet: almost all TLP comes from STATS.
	fd := byName["facedet"]
	if fd.ParSTATS[last] < 2*fd.Original[last] {
		t.Fatalf("facedet STATS %v should dwarf original %v", fd.ParSTATS[last], fd.Original[last])
	}
}

func TestFig14HTGains(t *testing.T) {
	t.Parallel()
	e := quickEnv()
	res := fig14(e)
	var anyGain bool
	for _, r := range res {
		if r.ParSTATSHT > r.ParSTATS {
			anyGain = true
		}
		if r.ParSTATSHT < r.ParSTATS*0.95 {
			t.Fatalf("%s: HT hurt STATS: %v -> %v", r.Name, r.ParSTATS, r.ParSTATSHT)
		}
	}
	if !anyGain {
		t.Fatal("Hyper-Threading never helped STATS")
	}
}

func TestFig15EnergySavings(t *testing.T) {
	t.Parallel()
	e := quickEnv()
	for _, r := range fig15(e) {
		if r.TimeModePct >= 110 {
			t.Fatalf("%s: time mode used %v%% of baseline energy", r.Name, r.TimeModePct)
		}
		if r.EnergyModePct > r.TimeModePct+1e-9 {
			t.Fatalf("%s: energy mode (%v%%) worse than time mode (%v%%)", r.Name, r.EnergyModePct, r.TimeModePct)
		}
	}
}

func TestFig16QualityImprovements(t *testing.T) {
	t.Parallel()
	e := quickEnv()
	res := fig16(e)
	improved := 0
	for _, r := range res {
		if r.Improvement > 1.2 {
			improved++
		}
		if r.Factor < 1 {
			t.Fatalf("%s: factor %v", r.Name, r.Factor)
		}
	}
	// The paper reports three benchmarks with substantial improvements.
	if improved < 2 {
		t.Fatalf("only %d benchmarks improved output quality", improved)
	}
}

func TestFig17OnlySTATSGeneralizes(t *testing.T) {
	t.Parallel()
	e := quickEnv()
	for _, r := range fig17(e) {
		stats := r.Par[related.STATS]
		for _, a := range []related.Approach{related.QuickStepLike, related.HelixUpLike, related.FastTrack} {
			if r.Name == "swaptions" {
				continue // breakers legitimately match STATS there
			}
			if r.Par[a] > stats*1.05 {
				t.Fatalf("%s: %s (%v) beat STATS (%v)", r.Name, a, r.Par[a], stats)
			}
		}
	}
}

func TestFig18PayoffCurve(t *testing.T) {
	t.Parallel()
	e := quickEnv()
	pts := fig18(e)
	if len(pts) < 3 {
		t.Fatalf("points: %d", len(pts))
	}
	last := pts[len(pts)-1]
	if last.RelativeSpeedup < 95 {
		t.Fatalf("encoding all tradeoffs reaches only %v%%", last.RelativeSpeedup)
	}
	if pts[0].RelativeSpeedup > last.RelativeSpeedup {
		t.Fatalf("zero tradeoffs (%v%%) should not beat all (%v%%)", pts[0].RelativeSpeedup, last.RelativeSpeedup)
	}
	// Two tradeoffs recover most of the benefit.
	if pts[2].RelativeSpeedup < 60 {
		t.Fatalf("two tradeoffs recover only %v%%; paper's shape is ~95%%", pts[2].RelativeSpeedup)
	}
}

func TestFig19BadTrainingSmallLoss(t *testing.T) {
	t.Parallel()
	e := quickEnv()
	var honest, bad []float64
	for _, r := range fig19(e) {
		honest = append(honest, r.ParSTATS)
		bad = append(bad, r.BadTraining)
		// Correctness is guaranteed by the runtime; performance must
		// stay at least near the conventional level.
		if r.BadTraining < 0.5*r.Original {
			t.Fatalf("%s: bad training %v collapsed below original %v", r.Name, r.BadTraining, r.Original)
		}
	}
	// The paper's claim is aggregate: bad training loses only a small
	// fraction of the tuned performance (per-benchmark results are noisy
	// at the quick tuning budget).
	gmH, gmB := mathx.GeoMean(honest), mathx.GeoMean(bad)
	if gmB > gmH*1.25 {
		t.Fatalf("bad training geomean %v suspiciously above honest %v", gmB, gmH)
	}
	if gmB < gmH*0.5 {
		t.Fatalf("bad training geomean %v lost too much vs honest %v", gmB, gmH)
	}
}

func TestFig20Converges(t *testing.T) {
	t.Parallel()
	e := quickEnv()
	sum := fig20(e)
	lastPt := sum.Points[len(sum.Points)-1]
	if lastPt.RelativePct < 99 {
		t.Fatalf("tuner not converged at the end: %v%%", lastPt.RelativePct)
	}
	// Variance shrinks as evaluations accumulate.
	if sum.Points[0].SeedStdDev < lastPt.SeedStdDev-1e-9 {
		t.Fatalf("seed variance grew: %v -> %v", sum.Points[0].SeedStdDev, lastPt.SeedStdDev)
	}
	if sum.EvalsToBest <= 1 {
		t.Fatalf("evaluations to best: %v", sum.EvalsToBest)
	}
}

// TestTablesRender renders every experiment on one quick Env, as
// `statsexp -exp all -quick` does.
func TestTablesRender(t *testing.T) {
	e := quickEnv()
	var buf bytes.Buffer
	seen := map[string]bool{}
	for _, x := range Experiments {
		if seen[x.ID] || x.ID != strings.ToLower(x.ID) || x.ID == "all" {
			t.Fatalf("experiment ID %q is repeated, not lower case, or all", x.ID)
		}
		seen[x.ID] = true
		tables, err := x.Run(e)
		if err != nil {
			t.Fatalf("%s: %v", x.ID, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s rendered no table", x.ID)
		}
		for _, tb := range tables {
			tb.Render(&buf)
		}
	}
	out := buf.String()
	for _, want := range []string{"Fig. 2", "Fig. 3", "Table 1", "Fig. 12", "Fig. 13", "Fig. 14",
		"Fig. 15", "Fig. 16", "Fig. 17", "Fig. 18", "Fig. 19", "Fig. 20", "geo. mean", "bodytrack",
		"Self-scrape", "Chaos", "Explore", "Ablation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q", want)
		}
	}
}

func TestModeConstantUsage(t *testing.T) {
	// Guard: the harness relies on taskgen mode ordering.
	if taskgen.Sequential != 0 || taskgen.ParSTATS != 3 {
		t.Fatal("taskgen mode constants moved")
	}
}
