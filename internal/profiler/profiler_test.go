package profiler

import (
	"testing"

	"repro/internal/autotune"
	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/taskgen"
	"repro/internal/workload"
	"repro/internal/workload/bodytrack"
	"repro/internal/workload/fluidanimate"
	"repro/internal/workload/swaptions"
)

func bodytrackProfiler(mode taskgen.Mode, threads int) *P {
	return &P{
		Machine:   platform.Haswell28(false),
		Threads:   threads,
		Energy:    energy.Default(),
		W:         bodytrack.New(),
		Size:      workload.NativeSize,
		Mode:      mode,
		GraphSeed: 7,
	}
}

func TestBuildSpaceShape(t *testing.T) {
	s := BuildSpace(bodytrack.New().Desc().Tradeoffs, 28)
	// 3 tradeoffs + 5 dependence dims + thread split.
	if s.Len() != 9 {
		t.Fatalf("dimensions: %d", s.Len())
	}
	if s.Cardinality() < 1e4 {
		t.Fatalf("cardinality suspiciously small: %v", s.Cardinality())
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	tradeoffs := bodytrack.New().Desc().Tradeoffs
	s := BuildSpace(tradeoffs, 28)
	c := s.Default()
	s.Set(c, "dep.aux", 1)
	s.Set(c, "dep.window", 4) // -> value 4
	s.Set(c, "dep.group", 2)  // -> value 8
	s.Set(c, "threads.original", 9)
	last := tradeoffs[len(tradeoffs)-1]
	s.Set(c, "aux."+last.Name, 1)
	o, threads := Decode(s, c)
	if !o.UseAux || o.Window != 4 || o.GroupSize != 8 {
		t.Fatalf("decoded: %+v", o)
	}
	if threads != 10 {
		t.Fatalf("threads: %d", threads)
	}
	// One index per tradeoff, in the tradeoffs' order.
	if len(o.TradeoffIdx) != len(tradeoffs) || o.TradeoffIdx[len(tradeoffs)-1] != 1 {
		t.Fatalf("tradeoff indices: %v", o.TradeoffIdx)
	}
	for i, tr := range tradeoffs[:len(tradeoffs)-1] {
		if o.TradeoffIdx[i] != tr.Opts.DefaultIndex() {
			t.Fatalf("tradeoff %s index %d, want its default %d", tr.Name, o.TradeoffIdx[i], tr.Opts.DefaultIndex())
		}
	}
}

func TestDefaultDecodesToBaseline(t *testing.T) {
	w := bodytrack.New()
	s := BuildSpace(w.Desc().Tradeoffs, 28)
	o, threads := Decode(s, s.Default())
	if o.UseAux {
		t.Fatal("baseline must not speculate")
	}
	if threads != 28 {
		t.Fatalf("baseline threads: %d", threads)
	}
}

func TestMeasureSTATSFasterThanBaseline(t *testing.T) {
	p := bodytrackProfiler(taskgen.ParSTATS, 28)
	base := p.Measure(workload.SpecOptions{}, 28)
	spec := p.Measure(workload.SpecOptions{
		UseAux: true, GroupSize: 8, Window: 3, RedoMax: 2, Rollback: 2,
	}, 28)
	if spec.TimeSeconds >= base.TimeSeconds {
		t.Fatalf("speculation not faster: %v vs %v", spec.TimeSeconds, base.TimeSeconds)
	}
	if spec.EnergyJ >= base.EnergyJ {
		t.Fatalf("speculation not cheaper: %v vs %v", spec.EnergyJ, base.EnergyJ)
	}
}

func TestThreadSplitCapsInnerWidth(t *testing.T) {
	p := bodytrackProfiler(taskgen.Original, 28)
	wide := p.Measure(workload.SpecOptions{}, 28)
	narrow := p.Measure(workload.SpecOptions{}, 2)
	if narrow.TimeSeconds <= wide.TimeSeconds {
		t.Fatalf("capping original TLP should slow it: %v vs %v", narrow.TimeSeconds, wide.TimeSeconds)
	}
}

func TestTuningFindsSpeculativeConfig(t *testing.T) {
	w := bodytrack.New()
	p := bodytrackProfiler(taskgen.ParSTATS, 28)
	s := BuildSpace(w.Desc().Tradeoffs, 28)
	res := autotune.Tune(s, p.Objective(s, Time, false), autotune.Options{Budget: 120, Seed: 1})
	o, _ := Decode(s, res.Best)
	if !o.UseAux {
		t.Fatal("tuner should discover speculation helps bodytrack")
	}
	baseline := p.Measure(workload.SpecOptions{}, 28)
	if res.BestVal >= baseline.TimeSeconds {
		t.Fatalf("tuned %v not faster than baseline %v", res.BestVal, baseline.TimeSeconds)
	}
}

func TestTunerRejectsFluidanimateAux(t *testing.T) {
	// §4.8: the autotuner empirically finds that fluidanimate's aux code
	// always aborts and chooses a configuration without it.
	w := fluidanimate.New()
	p := &P{
		Machine:   platform.Haswell28(false),
		Threads:   28,
		Energy:    energy.Default(),
		W:         w,
		Size:      workload.NativeSize,
		Mode:      taskgen.ParSTATS,
		GraphSeed: 3,
	}
	s := BuildSpace(w.Desc().Tradeoffs, 28)
	res := autotune.Tune(s, p.Objective(s, Time, false), autotune.Options{Budget: 150, Seed: 2})
	o, _ := Decode(s, res.Best)
	if o.UseAux && o.GroupSize < workload.NativeSize {
		t.Fatalf("tuner kept doomed speculation: %+v (best %v)", o, res.BestVal)
	}
}

func TestEnergyGoalPrefersNarrowerRuns(t *testing.T) {
	w := swaptions.New()
	p := &P{
		Machine:   platform.Haswell28(false),
		Threads:   28,
		Energy:    energy.Default(),
		W:         w,
		Size:      workload.NativeSize,
		Mode:      taskgen.ParSTATS,
		GraphSeed: 5,
	}
	s := BuildSpace(w.Desc().Tradeoffs, 28)
	timeRes := autotune.Tune(s, p.Objective(s, Time, false), autotune.Options{Budget: 100, Seed: 3})
	energyRes := autotune.Tune(s, p.Objective(s, Energy, false), autotune.Options{Budget: 100, Seed: 3})
	// Evaluate both winners under the energy metric: the energy-tuned
	// binary must not lose.
	oTime, thTime := Decode(s, timeRes.Best)
	oEnergy, thEnergy := Decode(s, energyRes.Best)
	if p.Measure(oEnergy, thEnergy).EnergyJ > p.Measure(oTime, thTime).EnergyJ {
		t.Fatal("energy-tuned config draws more energy than time-tuned")
	}
}

func TestBadTrainingMisleadsProfiler(t *testing.T) {
	p := bodytrackProfiler(taskgen.ParSTATS, 28)
	p.Training = true
	o := workload.SpecOptions{UseAux: true, GroupSize: 8, Window: 1, RedoMax: 1, Rollback: 2, BadTraining: true}
	misled := p.Measure(o, 28)
	o.BadTraining = false
	honest := p.Measure(o, 28)
	// With a window of 1, honest profiling sees mismatch risk; the §4.6
	// static-subject inputs hide it (the workload's cost model saturates
	// its window term).
	if misled.TimeSeconds > honest.TimeSeconds {
		t.Fatalf("bad training should look faster: %v vs %v", misled.TimeSeconds, honest.TimeSeconds)
	}
}

func TestGoalString(t *testing.T) {
	if Time.String() != "time" || Energy.String() != "energy" {
		t.Fatal("goal strings")
	}
}
