package core

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// checkFacts reconciles one run's accounts through the fact table: for
// every row naming a Stats field, the field, the /metrics sample (a
// histogram's _sum) and — for an event-backed row — the kind's counter and
// its events (counted, or their Args summed for a by-Arg kind) must all be
// the same number. A run that ran reservation rounds also committed every
// input exactly one way: reservation commits, conventional inputs and
// fallback inputs add up to the inputs. ob must have observed exactly the run
// that returned st, on a private pool.
func checkFacts(t *testing.T, name string, ob *obs.Observer, st Stats) {
	t.Helper()
	if d := ob.Tracer.Dropped(); d != 0 {
		t.Fatalf("%s: %d events evicted despite ample capacity", name, d)
	}
	var logged obs.Counts
	kindOf := map[string]obs.EventKind{}
	for k := range logged {
		kindOf[obs.EventKind(k).String()] = obs.EventKind(k)
	}
	for _, e := range ob.Tracer.Snapshot() {
		if e.Kind.Fact().ByArg {
			logged[e.Kind] += e.Arg
		} else {
			logged[e.Kind]++
		}
	}
	scraped := map[string]int64{}
	for _, line := range strings.Split(ob.Reg.Text(), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
			scraped[line[:i]], _ = strconv.ParseInt(line[i+1:], 10, 64)
		}
	}
	counts, fields := ob.Counts(), reflect.ValueOf(st)
	for _, f := range obs.Catalogue() {
		if f.Stats == "" {
			continue
		}
		want := fields.FieldByName(f.Stats).Int()
		got, ok := scraped[f.Metric]
		if !ok {
			got = scraped[f.Metric+"_sum"]
		}
		if got != want {
			t.Fatalf("%s: /metrics %s = %d, Stats.%s = %d", name, f.Metric, got, f.Stats, want)
		}
		if kind := kindOf[f.Event]; f.Event != "" && (counts[kind] != want || logged[kind] != want) {
			t.Fatalf("%s: %s counter %d, events %d, Stats.%s = %d",
				name, f.Event, counts[kind], logged[kind], f.Stats, want)
		}
	}
	if commits := counts[obs.EvCommit]; st.Rounds > 0 && commits+int64(st.ConventionalInputs+st.FallbackInputs) != int64(st.Inputs) {
		t.Fatalf("%s: %d reservation commits + %d conventional + %d fallback inputs, want %d inputs",
			name, commits, st.ConventionalInputs, st.FallbackInputs, st.Inputs)
	}
}

// TestStatsFieldsHaveFactRows fails when a numeric core.Stats field is
// added without either a fact-table row naming it (so checkFacts and the
// generated catalogue cover it) or an entry below saying why it is not a
// counter.
func TestStatsFieldsHaveFactRows(t *testing.T) {
	notCounters := map[string]string{
		"Inputs":            "run geometry, not an occurrence",
		"Groups":            "run geometry; a sequential run reports 1 and starts no group",
		"Invocations":       "Compute calls, counted per lane and never published to the observer",
		"UsefulInvocations": "derived from the committed input count",
		"AuxCalls":          "aux attempts: a panicked call is counted here but produces nothing (aux-produced)",
		"AuxInputs":         "window inputs handed to aux attempts",
		"SquashedInputs":    "the Arg sum of the squash events, whose counter counts groups",
	}
	named := map[string]bool{}
	for _, f := range obs.Catalogue() {
		named[f.Stats] = true
	}
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if k := f.Type.Kind(); k != reflect.Int && k != reflect.Int64 {
			continue
		}
		_, exempt := notCounters[f.Name]
		if named[f.Name] == exempt {
			t.Errorf("Stats.%s: fact-table row %v, not-a-counter entry %v — want exactly one", f.Name, named[f.Name], exempt)
		}
	}
	for name := range named {
		if _, ok := typ.FieldByName(name); name != "" && !ok {
			t.Errorf("fact table names Stats.%s, which does not exist", name)
		}
	}
}

// TestStatsAddCoversEveryField gives every field of two Stats a distinct
// non-zero value and fails on any field Add leaves out: counts sum, the
// queue-depth high-water mark takes the larger, Panics appends.
func TestStatsAddCoversEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		switch va.Field(i).Kind() {
		case reflect.Int, reflect.Int64:
			va.Field(i).SetInt(int64(i + 1))
			vb.Field(i).SetInt(int64(100 * (i + 1)))
		case reflect.Slice:
			va.Field(i).Set(reflect.ValueOf([]*PanicError{{Value: "a"}}))
			vb.Field(i).Set(reflect.ValueOf([]*PanicError{{Value: "b"}}))
		default:
			t.Fatalf("Stats.%s: kind %v — teach Add and this test about it", va.Type().Field(i).Name, va.Field(i).Kind())
		}
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		switch {
		case name == "Panics":
			if len(a.Panics) != 2 || a.Panics[0].Value != "a" || a.Panics[1].Value != "b" {
				t.Errorf("Add did not append Panics: %v", a.Panics)
			}
		case name == "QueueDepthPeak":
			if a.QueueDepthPeak != b.QueueDepthPeak {
				t.Errorf("QueueDepthPeak = %d, want the larger (%d)", a.QueueDepthPeak, b.QueueDepthPeak)
			}
		default:
			if got, want := va.Field(i).Int(), int64(101*(i+1)); got != want {
				t.Errorf("Add left Stats.%s at %d, want %d", name, got, want)
			}
		}
	}
}

// TestRedoPanicCountedOnce is the one-shot redo panic: the aux state never
// matches, so boundary 1 re-executes group 0's last input, and compute
// panics on that second sight of input 3 only. The redo was attempted, so
// every account says one redo: Stats, the counter, the event log, the
// per-validation histogram and the abort event's argument.
func TestRedoPanicCountedOnce(t *testing.T) {
	var seen atomic.Int32
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		if in == 3 && seen.Add(1) == 2 {
			panic("redo boom")
		}
		return deterministicCompute(r, in, s)
	}
	garbage := func(*rng.Source, walkState, []int) walkState { return walkState{V: -1} }
	inputs := seqInputs(12)
	ob := obs.NewObserver(4, 1024)
	outs, _, st := New(compute, garbage, walkOps()).Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 2, RedoMax: 1, Rollback: 1, Workers: 2, Seed: 8, Obs: ob,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	checkFacts(t, "redo panic", ob, st)
	if st.Redos != 1 || st.Aborts != 1 || st.PanickedGroups != 1 {
		t.Fatalf("redos %d aborts %d panicked %d, want 1 1 1", st.Redos, st.Aborts, st.PanickedGroups)
	}
	for _, e := range ob.Tracer.Snapshot() {
		if e.Kind == obs.EvAbort && e.Arg != 1 {
			t.Fatalf("abort event reports %d redos consumed, want 1", e.Arg)
		}
	}
	// The validation started, so it is observed even though it panicked.
	if got, want := ob.RedosPerValidation.Count(), int64(st.Matches+st.Aborts); got != want {
		t.Fatalf("redo histogram has %d observations, %d boundaries resolved", got, want)
	}
	if got := ob.ValidationLatencyNS.Count(); got != 1 {
		t.Fatalf("latency histogram has %d observations, want 1", got)
	}
}

// Property-style observability invariants: for randomized option vectors
// over the same nondeterministic walk as the accounting test, the event
// log and metrics the observability layer records must agree with each
// other and with the engine's own Stats — the event stream is not a
// best-effort narration but a second, independently-consistent account of
// the run:
//
//   - counters reconcile with Stats: aborts, redos, matches, squashed
//     groups' inputs, fallback inputs, groups started/finished, aux calls;
//   - histogram totals reconcile with counter totals: the validation
//     latency histogram has one observation per resolved boundary
//     (matches + aborts) and the redos-per-validation histogram's sum is
//     the redo counter;
//   - per group, events are well-ordered in time: aux-produced <= group
//     start <= group finish <= that group's validation outcome;
//   - a sequential run (one group) emits no speculation events at all.
func TestObservabilityInvariantsRandomized(t *testing.T) {
	r := rng.New(0x0B5E)
	const cases = 240
	sawAbort, sawRedo, sawMatch := false, false, false
	for c := 0; c < cases; c++ {
		n := r.Intn(81)
		inputs := seqInputs(n)
		opts := Options{
			UseAux:    r.Bool(0.9),
			GroupSize: 1 + r.Intn(40),
			Window:    r.Intn(11),
			RedoMax:   r.Intn(5),
			Rollback:  r.Intn(7),
			Workers:   1 + r.Intn(6),
			Seed:      r.Uint64(),
		}
		tol := r.Range(0.05, 3.0)
		ob := obs.NewObserver(1+r.Intn(8), 4096)
		opts.Obs = ob
		d := New(nondetCompute, noiselessAuxFor(inputs), tolerantOps(tol))
		outs, _, st := d.Run(inputs, walkState{}, opts)
		name := fmt.Sprintf("case %d (n=%d opts=%+v tol=%.2f)", c, n, opts, tol)

		checkOutputs(t, outs, wantOutputs(inputs))
		events := ob.Tracer.Snapshot()

		// Counters and events vs engine stats, row by row.
		checkFacts(t, name, ob, st)
		counts := ob.Counts()
		if counts[obs.EvAuxProduced] != int64(st.AuxCalls) {
			t.Fatalf("%s: %d aux states produced, engine ran aux %d times", name, counts[obs.EvAuxProduced], st.AuxCalls)
		}
		if counts[obs.EvGroupStart] != counts[obs.EvGroupFinish] {
			t.Fatalf("%s: %d groups started, %d finished",
				name, counts[obs.EvGroupStart], counts[obs.EvGroupFinish])
		}
		var squashedInputs int64
		for _, e := range events {
			if e.Kind == obs.EvSquash {
				squashedInputs += e.Arg
			}
		}
		if squashedInputs != int64(st.SquashedInputs) {
			t.Fatalf("%s: squash events cover %d inputs, engine squashed %d",
				name, squashedInputs, st.SquashedInputs)
		}

		// Histogram totals vs counter totals.
		boundaries := int64(st.Matches + st.Aborts)
		if got := ob.ValidationLatencyNS.Count(); got != boundaries {
			t.Fatalf("%s: latency histogram has %d observations, %d boundaries resolved",
				name, got, boundaries)
		}
		if got := ob.RedosPerValidation.Count(); got != boundaries {
			t.Fatalf("%s: redo histogram has %d observations, %d boundaries resolved",
				name, got, boundaries)
		}
		if got := ob.RedosPerValidation.Sum(); got != int64(st.Redos) {
			t.Fatalf("%s: redo histogram sums to %d, engine redid %d", name, got, st.Redos)
		}

		// Per-group ordering: aux <= start <= finish <= validation outcome.
		type groupTimes struct {
			aux, start, finish, outcome int64
			has                         [4]bool
		}
		gt := map[int32]*groupTimes{}
		at := func(g int32) *groupTimes {
			if gt[g] == nil {
				gt[g] = &groupTimes{}
			}
			return gt[g]
		}
		for _, e := range events {
			switch e.Kind {
			case obs.EvAuxProduced:
				g := at(e.Group)
				g.aux, g.has[0] = e.TS, true
			case obs.EvGroupStart:
				g := at(e.Group)
				g.start, g.has[1] = e.TS, true
			case obs.EvGroupFinish:
				g := at(e.Group)
				g.finish, g.has[2] = e.TS, true
			case obs.EvValidateMatch, obs.EvAbort:
				g := at(e.Group)
				g.outcome, g.has[3] = e.TS, true
			}
		}
		for id, g := range gt {
			if g.has[0] && g.has[1] && g.aux > g.start {
				t.Fatalf("%s: group %d aux at %d after start at %d", name, id, g.aux, g.start)
			}
			if g.has[1] && g.has[2] && g.start > g.finish {
				t.Fatalf("%s: group %d start at %d after finish at %d", name, id, g.start, g.finish)
			}
			if g.has[2] && g.has[3] && g.finish > g.outcome {
				t.Fatalf("%s: group %d finished at %d after its validation at %d",
					name, id, g.finish, g.outcome)
			}
		}

		// Sequential runs speculate nothing and must say so.
		if st.Groups <= 1 {
			for _, e := range events {
				switch e.Kind {
				case obs.EvSteal, obs.EvLocalHit, obs.EvTaskFinish:
					// Scheduler events can still occur (pool warmup).
				default:
					t.Fatalf("%s: sequential run emitted %v", name, e.Kind)
				}
			}
		}

		sawAbort = sawAbort || st.Aborts > 0
		sawRedo = sawRedo || st.Redos > 0
		sawMatch = sawMatch || st.Matches > 0
	}
	if !sawAbort || !sawRedo || !sawMatch {
		t.Fatalf("sample did not exercise all outcomes: abort=%v redo=%v match=%v",
			sawAbort, sawRedo, sawMatch)
	}
}

// TestEventsCarryTheAccountsReadings pins the shared phase readings: on a
// healthy aux run (every boundary matches first time, so no redo touches an
// account) a group's aux-produced and group-start events carry the one
// reading that ended the aux and began the execution, and the lane CPU
// filed for the group is exactly the span its events draw — execution from
// start to finish stamp, plus the aux duration the aux event packs. Exact
// equality: the stamps are the account's own readings, not reads taken
// beside them.
func TestEventsCarryTheAccountsReadings(t *testing.T) {
	inputs := seqInputs(64)
	for _, workers := range []int{1, 2} {
		ob := obs.NewObserver(4, 4096)
		outs, _, st := New(deterministicCompute, exactAuxFor(inputs), walkOps()).Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 8, Window: 4, RedoMax: 1, Rollback: 2, Workers: workers, Seed: 20, Obs: ob,
		})
		checkOutputs(t, outs, wantOutputs(inputs))
		if st.Matches != st.Groups-1 || st.Redos != 0 || st.Aborts != 0 {
			t.Fatalf("workers %d: not a healthy run: %+v", workers, st)
		}
		type stamps struct{ aux, auxDur, start, finish, cpu int64 }
		byGroup := make([]stamps, st.Groups)
		for _, e := range ob.Tracer.Snapshot() {
			if e.Group < 0 {
				continue
			}
			g := &byGroup[e.Group]
			switch e.Kind {
			case obs.EvAuxProduced:
				g.aux = e.TS
				_, g.auxDur = obs.SplitAuxArg(e.Arg)
			case obs.EvGroupStart:
				g.start = e.TS
			case obs.EvGroupFinish:
				g.finish = e.TS
			case obs.EvLaneCPUCommitted:
				g.cpu = e.Arg
			}
		}
		for j, g := range byGroup {
			if j > 0 && g.aux != g.start {
				t.Errorf("workers %d group %d: aux-produced at %d, group-start at %d: want one reading", workers, j, g.aux, g.start)
			}
			if span := g.finish - g.start + g.auxDur; g.cpu != span {
				t.Errorf("workers %d group %d: lane-cpu-committed %d ns, events span %d ns (exec %d..%d, aux %d)",
					workers, j, g.cpu, span, g.start, g.finish, g.auxDur)
			}
		}
	}
}
