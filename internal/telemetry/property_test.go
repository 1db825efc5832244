package telemetry

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rng"
)

// The signals aggregator is supposed to be a faithful windowed view of
// the engine's own accounting: over a window that covers an entire run,
// every raw delta in a SignalsReport must equal the corresponding
// core.Stats field. This file checks that property over randomized
// option vectors for both protocols, with fault injection supplying the
// panics and garbage states that make the unhappy-path counters move.

// propState is a prefix-sum dependence state, exact enough that the
// auxiliary code can be made right or wrong on demand via the window.
type propState struct{ Sum float64 }

func propOps() core.StateOps[propState] {
	return core.StateOps[propState]{
		Clone: func(s propState) propState { return s },
		MatchAny: func(spec propState, originals []propState) bool {
			for _, o := range originals {
				if spec.Sum == o.Sum {
					return true
				}
			}
			return false
		},
	}
}

func propCompute(_ *rng.Source, in int, s propState) (int, propState) {
	s.Sum += float64(in)
	return in*2 + int(s.Sum), s
}

// propAux is exact only when the engine's window covers the whole
// prefix; short windows make it guess wrong, driving mismatches, redos
// and aborts without any injected fault.
func propAux(_ *rng.Source, init propState, recent []int) propState {
	for _, v := range recent {
		init.Sum += float64(v)
	}
	return init
}

func propGarbage(s propState) propState { return propState{Sum: s.Sum - 1e12} }

// propRuns drives cases randomized engine runs — alternating protocols,
// fault injection supplying panics and garbage states — each on a fresh
// observer. body sets up what it observes with, calls run once, and checks.
func propRuns(t *testing.T, cases int, body func(name string, ob *obs.Observer, run func() core.Stats)) {
	r := rng.New(0x51675)
	protocols := []core.Protocol{core.ProtocolAux, core.ProtocolReservations}
	for c := 0; c < cases; c++ {
		proto := protocols[c%2]
		n := 1 + r.Intn(48)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = 1 + r.Intn(9)
		}
		ob := obs.NewObserver(1+r.Intn(6), 1<<13)
		in := fault.New(fault.Config{
			Seed:         r.Uint64(),
			AuxPanicRate: r.Range(0, 0.2),
			GarbageRate:  r.Range(0, 0.3),
		})
		aux := fault.WrapAux(in, propAux, propGarbage)
		window := n
		if r.Bool(0.4) {
			window = r.Intn(8) // short window: aux guesses wrong
		}
		opts := core.Options{
			UseAux:    true,
			Protocol:  proto,
			GroupSize: 1 + r.Intn(12),
			Window:    window,
			RedoMax:   r.Intn(3),
			Rollback:  1 + r.Intn(4),
			Workers:   1 + r.Intn(4),
			Seed:      r.Uint64(),
			Obs:       ob,
		}
		body(fmt.Sprintf("case %d (proto=%v n=%d window=%d)", c, proto, n, window), ob, func() core.Stats {
			_, _, st := core.New(propCompute, aux, propOps()).Run(inputs, propState{}, opts)
			return st
		})
	}
}

// TestAuxSpanEndsWhereExecStarts: a group's aux-produced and group-start
// events share one lane reading, so on a real two-group run — through a
// snapshot and through a live folder alike — the speculative group's aux
// span ends on the very nanosecond its execution span starts. The fold
// needs the order contract for it: equal stamps in emission order, the aux
// event first (obs.TestEqualStampsKeepEmissionOrder).
func TestAuxSpanEndsWhereExecStarts(t *testing.T) {
	ob := obs.NewObserver(2, 1<<10)
	folder := NewSpanFolder(ob.Tracer)
	inputs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	core.New(propCompute, propAux, propOps()).Run(inputs, propState{}, core.Options{
		UseAux: true, GroupSize: 4, Window: len(inputs), Workers: 2, Obs: ob,
	})
	folder.Poll()
	for name, doc := range map[string]*SpanDoc{"snapshot": BuildSpans(ob.Tracer.Snapshot()), "folder": folder.Doc()} {
		var aux, exec *Span
		for _, g := range doc.Groups {
			for _, c := range g.Children {
				switch {
				case g.Group == 1 && c.Kind == SpanAux:
					aux = c
				case g.Group == 1 && c.Kind == SpanExec && !c.Partial:
					exec = c
				}
			}
		}
		if aux == nil || exec == nil || aux.EndNS != exec.StartNS {
			t.Errorf("%s: group 1 aux span %+v, exec span %+v: want aux.EndNS == exec.StartNS", name, aux, exec)
		}
	}
}

// TestConventionalGroupIsAGroupSpanWithoutRounds: a real reservations run
// at one worker, whose dependence has no slots, rounds only group 0 (ruled
// before anything was timed); groups 1 to 3 are the conventional tail, in
// streaks of one and two groups. Through a snapshot and through a live
// folder alike, a streak's group is a complete group span — an execution
// that produced its inputs' outputs — with the conventional outcome and no
// reservation counts, and a group that ran rounds reserved and committed
// each of its inputs.
func TestConventionalGroupIsAGroupSpanWithoutRounds(t *testing.T) {
	const n, g = 16, 4
	ob := obs.NewObserver(2, 1<<10)
	folder := NewSpanFolder(ob.Tracer)
	inputs := make([]int, n)
	_, _, st := core.New(propCompute, nil, propOps()).Run(inputs, propState{}, core.Options{
		UseAux: true, Protocol: core.ProtocolReservations, GroupSize: g, Workers: 1, Obs: ob,
	})
	if st.ConventionalInputs != n-g || st.Rounds != g {
		t.Fatalf("run shape moved: %+v", st)
	}
	folder.Poll()
	for name, doc := range map[string]*SpanDoc{"snapshot": BuildSpans(ob.Tracer.Snapshot()), "folder": folder.Doc()} {
		if len(doc.Groups) != n/g || doc.PartialGroups != 0 {
			t.Fatalf("%s: %d groups, %d partial:\n%s", name, len(doc.Groups), doc.PartialGroups, SpanString(doc))
		}
		for _, root := range doc.Groups {
			// Round r of a group that runs them has g-r reservers and one
			// winner.
			outcome, commits := OutcomeUnvalidated, int32(g)
			if root.Group > 0 {
				outcome, commits = OutcomeConventional, 0
			}
			if root.Outcome != outcome || root.Commits != commits || root.Reserves != commits*(g+1)/2 || root.Conflicts != commits*(g-1)/2 ||
				len(root.Children) != 1 || root.Children[0].Kind != SpanExec || root.Children[0].Arg != g ||
				root.StartNS != root.Children[0].StartNS || root.EndNS < root.Children[0].EndNS {
				t.Errorf("%s: group %d: want outcome %s, %d commits, one exec span of %d outputs:\n%s",
					name, root.Group, outcome, commits, g, SpanString(doc))
			}
		}
	}
}

// TestSignalsReconcileWithEngineStats: for >=200 random option vectors
// under both protocols, an hour-window Signals built on a fresh observer
// reports deltas byte-for-byte equal to the run's core.Stats.
func TestSignalsReconcileWithEngineStats(t *testing.T) {
	sawAbort, sawPanic, sawRounds, sawWaste, sawStreak := false, false, false, false, false
	propRuns(t, 208, func(name string, ob *obs.Observer, run func() core.Stats) {
		sig := NewSignals(ob, SignalsConfig{Window: time.Hour})
		sig.Report() // baseline sample: the observer is fresh, all zeros
		st := run()
		rep := sig.Report()

		for _, chk := range []struct {
			what string
			got  int64
			want int64
		}{
			{"validations", rep.Validations, int64(st.Matches + st.Aborts)},
			{"matches", rep.Matches, int64(st.Matches)},
			{"aborts", rep.Aborts, int64(st.Aborts)},
			{"redos", rep.Redos, int64(st.Redos)},
			{"fallback inputs", rep.FallbackInputs, int64(st.FallbackInputs)},
			{"spec-committed inputs", rep.SpecCommittedInputs, int64(st.SpeculativeCommits)},
			{"panicked groups", rep.PanickedGroups, int64(st.PanickedGroups)},
			{"timed-out groups", rep.TimedOutGroups, int64(st.TimedOutGroups)},
			{"breaker-denied runs", rep.BreakerDeniedRuns, int64(st.BreakerDenied)},
			{"reservation rounds", rep.ReservationRounds, int64(st.Rounds)},
			{"conventional inputs", rep.ConventionalInputs, int64(st.ConventionalInputs)},
			{"steals", rep.Steals, st.Steals},
			{"local hits", rep.LocalHits, st.LocalHits},
			{"committed lane CPU", rep.LaneCPUCommittedNS, st.LaneCPUCommittedNS},
			{"wasted lane CPU", rep.LaneCPUWastedNS, st.LaneCPUWastedNS},
		} {
			if chk.got != chk.want {
				t.Fatalf("%s: windowed %s = %d, engine stats say %d",
					name, chk.what, chk.got, chk.want)
			}
		}

		// A run of reservation rounds commits every input exactly one way.
		if got := rep.ReservationCommits + rep.ConventionalInputs + rep.FallbackInputs; st.Rounds > 0 && got != int64(st.Inputs) {
			t.Fatalf("%s: windowed reservation commits %d + conventional %d + fallback %d inputs, engine ran %d",
				name, rep.ReservationCommits, rep.ConventionalInputs, rep.FallbackInputs, st.Inputs)
		}

		sawAbort = sawAbort || st.Aborts > 0
		sawPanic = sawPanic || st.PanickedGroups > 0
		sawRounds = sawRounds || st.Rounds > 0
		sawWaste = sawWaste || st.LaneCPUWastedNS > 0
		sawStreak = sawStreak || st.ConventionalInputs > 0
	})
	if !sawAbort || !sawPanic || !sawRounds || !sawWaste || !sawStreak {
		t.Fatalf("sample did not exercise all paths: abort=%v panic=%v rounds=%v waste=%v streak=%v",
			sawAbort, sawPanic, sawRounds, sawWaste, sawStreak)
	}
}

// chromeSpans returns the group (pid 1) or task (pid 2) "X" records of a
// Chrome document as "tid ts dur" strings, in document order.
func chromeSpans(blob []byte, pid int) []string {
	re := regexp.MustCompile(fmt.Sprintf(
		`"name":"(?:group|task)[^"]*","ph":"X","pid":%d,"tid":(\d+),"ts":([\d.]+),"dur":([\d.]+)`, pid))
	var out []string
	for _, m := range re.FindAllSubmatch(blob, -1) {
		out = append(out, fmt.Sprintf("%s %s %s", m[1], m[2], m[3]))
	}
	return out
}

// TestViewsAgreeOnRealLogs: over real engine logs of both protocols with
// faults injected, the Chrome export's engine spans are the span
// document's complete executions one for one (and one per EvGroupFinish),
// its scheduler spans are the closed lane tasks (one per EvTaskFinish),
// and the lane rows draw exactly those tasks. Last, by hand: a group id
// executing more often than a live folder retains trees (every server
// ring does this) still exports one engine span per execution.
func TestViewsAgreeOnRealLogs(t *testing.T) {
	span := func(id, startNS, durNS int64) string {
		return fmt.Sprintf("%d %.3f %.3f", id, float64(startNS)/1e3, float64(durNS)/1e3)
	}
	propRuns(t, 64, func(name string, ob *obs.Observer, run func() core.Stats) {
		run()
		log := ob.Tracer.Snapshot()
		doc, tasks := BuildSpans(log), LaneTasks(log)
		var chrome, fall bytes.Buffer
		if err := writeChrome(&chrome, doc, tasks); err != nil || ob.Tracer.Dropped() > 0 {
			t.Fatalf("%s: export failed (%v) or the ring is too small for the vector", name, err)
		}

		var execs, closed []string
		for _, g := range doc.Groups {
			for _, c := range g.Children {
				if c.Kind == SpanExec && !c.Partial {
					execs = append(execs, span(int64(g.Group), c.StartNS, c.DurNS))
				}
			}
		}
		stolen := 0
		for _, task := range tasks {
			if !task.Open {
				closed = append(closed, span(int64(task.Lane), task.StartNS, task.EndNS-task.StartNS))
			}
			if task.Stolen {
				stolen++
			}
		}
		counts := ob.Counts()
		for _, v := range []struct {
			pid      int
			want     []string
			finishes int64
		}{{chromePidEngine, execs, counts[obs.EvGroupFinish]}, {chromePidScheduler, closed, counts[obs.EvTaskFinish]}} {
			if got := chromeSpans(chrome.Bytes(), v.pid); !slices.Equal(got, v.want) || int64(len(got)) != v.finishes {
				t.Fatalf("%s: pid %d exports %v, the model holds %v, the log %d finishes", name, v.pid, got, v.want, v.finishes)
			}
		}
		if len(doc.Groups) == 0 {
			return // a vector too short to speculate: no chart
		}
		// Rank the (time-ordered) log and draw one column per event, so
		// no two dispatches share a cell (an aux span's nanoseconds mean
		// nothing on the rank axis: make it an instant).
		for i := range log {
			log[i].TS = int64(i)
			if log[i].Kind == obs.EvAuxProduced {
				window, _ := obs.SplitAuxArg(log[i].Arg)
				log[i].Arg = obs.AuxArg(window, 0)
			}
		}
		RenderWaterfall(&fall, BuildSpans(log), LaneTasks(log), len(log), 1)
		_, lanes, _ := strings.Cut(fall.String(), "task running\n")
		lanes, _, _ = strings.Cut(lanes, "critical path")
		if l, s := strings.Count(lanes, "L"), strings.Count(lanes, "S"); l != len(tasks)-stolen || s != stolen {
			t.Fatalf("%s: lane rows draw %d local and %d stolen dispatches of %d and %d", name, l, s, len(tasks)-stolen, stolen)
		}
	})

	const runs = completedRingCap + 44
	var log []obs.Event
	for i := int64(0); i < runs; i++ {
		log = append(log,
			obs.Event{TS: 100 * i, Kind: obs.EvGroupStart, Group: 7},
			obs.Event{TS: 100*i + 50, Kind: obs.EvGroupFinish, Group: 7, Arg: 1})
	}
	var b bytes.Buffer
	if err := ChromeTrace(&b, log); err != nil || len(chromeSpans(b.Bytes(), chromePidEngine)) != runs {
		t.Fatalf("%d engine spans for %d executions (%v)", len(chromeSpans(b.Bytes(), chromePidEngine)), runs, err)
	}
}
