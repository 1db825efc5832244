// Package conformance runs every registered workload through a common
// battery of contract tests: the properties the harness and the paper's
// claims rely on, checked uniformly rather than per-package.
package conformance

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/workload/registry"
)

const size = 16

func forAll(t *testing.T, fn func(t *testing.T, w workload.Workload)) {
	t.Helper()
	for _, w := range registry.All() {
		w := w
		t.Run(w.Desc().Name, func(t *testing.T) {
			t.Parallel()
			fn(t, w)
		})
	}
}

func specOpts() workload.SpecOptions {
	return workload.SpecOptions{
		UseAux: true, GroupSize: 4, Window: 3, RedoMax: 3, Rollback: 2, Workers: 4,
	}
}

func TestDescriptorWellFormed(t *testing.T) {
	forAll(t, func(t *testing.T, w workload.Workload) {
		d := w.Desc()
		if d.Name == "" || d.OriginalLOC <= 0 {
			t.Fatal("descriptor basics")
		}
		if d.SupportsSTATS {
			if d.NumDeps < 1 {
				t.Fatal("supported workload without dependences")
			}
			if len(d.Tradeoffs) == 0 {
				t.Fatal("supported workload without tradeoffs")
			}
			// Table 1 columns: algorithmic tradeoffs plus the two
			// thread counts every benchmark naturally has.
			if len(d.TradeoffLOC) != len(d.Tradeoffs)+2 {
				t.Fatalf("tradeoff columns %d != algorithmic %d + 2",
					len(d.TradeoffLOC), len(d.Tradeoffs))
			}
		} else if d.RejectReason == "" {
			t.Fatal("rejected workload must explain why")
		}
		if d.VariabilitySource != "race" && d.VariabilitySource != "prvg" {
			t.Fatalf("variability source %q", d.VariabilitySource)
		}
	})
}

func TestRunsAreDeterministicPerSeed(t *testing.T) {
	forAll(t, func(t *testing.T, w workload.Workload) {
		a := w.RunOriginal(7, size)
		b := w.RunOriginal(7, size)
		if d := a.Distance(b); d != 0 {
			t.Fatalf("same seed diverged: %v", d)
		}
	})
}

func TestRunsAreNondeterministicAcrossSeeds(t *testing.T) {
	forAll(t, func(t *testing.T, w workload.Workload) {
		a := w.RunOriginal(1, size)
		found := false
		for seed := uint64(2); seed < 6; seed++ {
			if a.Distance(w.RunOriginal(seed, size)) > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("no output variability across seeds")
		}
	})
}

func TestSelfDistanceZero(t *testing.T) {
	forAll(t, func(t *testing.T, w workload.Workload) {
		r := w.RunOriginal(3, size)
		if d := r.Distance(r); d != 0 {
			t.Fatalf("self distance %v", d)
		}
	})
}

func TestOracleDeterministic(t *testing.T) {
	forAll(t, func(t *testing.T, w workload.Workload) {
		if d := w.RunOracle(size).Distance(w.RunOracle(size)); d != 0 {
			t.Fatalf("oracle not deterministic: %v", d)
		}
	})
}

func TestSTATSPreservesQualityBand(t *testing.T) {
	forAll(t, func(t *testing.T, w workload.Workload) {
		oracle := w.RunOracle(size)
		var worst float64
		for seed := uint64(0); seed < 5; seed++ {
			if d := w.RunOriginal(seed, size).Distance(oracle); d > worst {
				worst = d
			}
		}
		res, st := w.RunSTATS(11, size, specOpts())
		d := res.Distance(oracle)
		// The runtime's checks keep the output within the program's
		// own variability band (a small multiple covers sampling).
		if d > 4*worst+1e-9 {
			t.Fatalf("STATS distance %v far outside band %v (stats %+v)", d, worst, st)
		}
	})
}

func TestSTATSBookkeeping(t *testing.T) {
	forAll(t, func(t *testing.T, w workload.Workload) {
		o := specOpts()
		o.Obs = obs.NewObserver(o.Workers+1, 1<<14)
		_, st := w.RunSTATS(5, size, o)
		// However many engine runs the workload's answer took, the Stats it
		// hands back and the observer that watched them are one account.
		for _, f := range obs.Catalogue() {
			if f.Stats == "" || !strings.HasSuffix(f.Metric, "_total") {
				continue
			}
			got, want := reflect.ValueOf(st).FieldByName(f.Stats).Int(), o.Obs.Reg.Counter(f.Metric).Value()
			if got != want {
				t.Errorf("Stats.%s = %d, observer's %s = %d", f.Stats, got, f.Metric, want)
			}
		}
		if !w.Desc().SupportsSTATS {
			if st.Groups != 0 {
				t.Fatalf("rejected workload speculated: %+v", st)
			}
			return
		}
		if st.Inputs == 0 {
			t.Fatal("no inputs recorded")
		}
		if st.UsefulInvocations > st.Invocations {
			t.Fatalf("useful > total: %+v", st)
		}
		if st.Aborts > 1 {
			t.Fatalf("multiple aborts in one run: %+v", st)
		}
		if st.Aborts == 1 && st.FallbackInputs == 0 {
			t.Fatalf("abort without fallback: %+v", st)
		}
	})
}

func TestBoostedAtLeastAsGoodOnAverage(t *testing.T) {
	forAll(t, func(t *testing.T, w workload.Workload) {
		oracle := w.RunOracle(size)
		var base, boosted float64
		for seed := uint64(0); seed < 4; seed++ {
			base += w.RunOriginal(seed, size).Distance(oracle)
			boosted += w.RunBoosted(seed, size, 6).Distance(oracle)
		}
		// Strict improvement isn't universal (fluidanimate's jitter
		// damping is bounded), but boosting must never hurt much.
		if boosted > base*1.25+1e-9 {
			t.Fatalf("boosting degraded quality: %v vs %v", boosted, base)
		}
	})
}

func TestCostModelSane(t *testing.T) {
	forAll(t, func(t *testing.T, w workload.Workload) {
		m := w.CostModel(size, specOpts())
		if m.NumInputs != size {
			t.Fatalf("inputs %d", m.NumInputs)
		}
		if m.InvocationWork <= 0 {
			t.Fatalf("invocation work %v", m.InvocationWork)
		}
		if m.MatchProb < 0 || m.MatchProb > 1 {
			t.Fatalf("match prob %v", m.MatchProb)
		}
		if m.RedoGain < 0 || m.RedoGain > 1 {
			t.Fatalf("redo gain %v", m.RedoGain)
		}
		if m.InnerWidth < 1 {
			t.Fatalf("inner width %d", m.InnerWidth)
		}
		if m.InnerSerialFrac < 0 || m.InnerSerialFrac > 1 {
			t.Fatalf("serial frac %v", m.InnerSerialFrac)
		}
		if m.OuterParallel && m.OuterTasks < 2 {
			t.Fatalf("outer-parallel with %d tasks", m.OuterTasks)
		}
	})
}

func TestCostModelRespondsToTradeoffs(t *testing.T) {
	forAll(t, func(t *testing.T, w workload.Workload) {
		d := w.Desc()
		if !d.SupportsSTATS || len(d.Tradeoffs) == 0 {
			return
		}
		// All-minimum auxiliary tradeoffs must not cost more than
		// all-maximum ones.
		lo := specOpts()
		lo.TradeoffIdx = make([]int64, len(d.Tradeoffs))
		hi := specOpts()
		hi.TradeoffIdx = make([]int64, len(d.Tradeoffs))
		for i, tr := range d.Tradeoffs {
			hi.TradeoffIdx[i] = tr.Opts.MaxIndex() - 1
		}
		mLo := w.CostModel(size, lo)
		mHi := w.CostModel(size, hi)
		if mLo.AuxWork > mHi.AuxWork+1e-9 {
			t.Fatalf("minimum tradeoffs cost more aux work: %v vs %v", mLo.AuxWork, mHi.AuxWork)
		}
	})
}

func TestRegistry(t *testing.T) {
	if len(registry.Targets()) != 6 {
		t.Fatalf("targets: %d", len(registry.Targets()))
	}
	if len(registry.All()) != 7 {
		t.Fatalf("all: %d", len(registry.All()))
	}
	if _, err := registry.ByName("bodytrack"); err != nil {
		t.Fatal(err)
	}
	if _, err := registry.ByName("nonexistent"); err == nil {
		t.Fatal("unknown name accepted")
	}
	names := registry.Names()
	if len(names) != 7 || names[0] != "swaptions" || names[6] != "canneal" {
		t.Fatalf("names: %v", names)
	}
}
