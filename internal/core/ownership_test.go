package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sched"
)

// State ownership (DESIGN.md, "Who copies a state, and when"): a state handed
// to Compute or Aux belongs to that call, and the engine alone copies, at the
// hand-offs where a second reader exists. The tests here run one dependence
// over a reference-typed state with two computes that differ only in how they
// treat the state they are handed — one copies it and updates the copy, the
// other updates it in place — and require the engine to be unable to tell them
// apart; then they count the copies.

// box is a state with a reference inside a reference: a Clone that stops at
// either level lets an in-place compute write its source.
type box struct {
	v    float64
	seen []int // every input folded in, in order
}

type boxOut struct {
	v float64
	n int
}

func cloneBox(b *box) *box { return &box{v: b.v, seen: slices.Clone(b.seen)} }

func foldBox(r *rng.Source, in int, b *box) boxOut {
	b.v += float64(in) + 0.5*r.Norm()
	b.seen = append(b.seen, in)
	return boxOut{b.v, len(b.seen)}
}

// boxComputes returns the two styles. Each panics the first time it is handed
// input panicAt (never for 0) — before it touches the state — and behaves ever
// after: a transient fault on whichever path executes that input first.
func boxComputes(panicAt int) (functional, inPlace Compute[int, *box, boxOut]) {
	style := func(private func(*box) *box) Compute[int, *box, boxOut] {
		var tripped atomic.Bool
		return func(r *rng.Source, in int, b *box) (boxOut, *box) {
			if in == panicAt && tripped.CompareAndSwap(false, true) {
				panic("transient user bug")
			}
			b = private(b)
			return foldBox(r, in, b), b
		}
	}
	return style(cloneBox), style(func(b *box) *box { return b })
}

// boxAux builds on the copy it is given, as the contract allows: inputs are
// 1..n, so the last recent input gives the exact prefix sum; with an empty
// window it can only hand back the initial state.
func boxAux(r *rng.Source, init *box, recent []int) *box {
	if len(recent) > 0 {
		last := recent[len(recent)-1]
		init.v = float64(last*(last+1)/2) + 0.1*r.Norm()
	}
	init.seen = append(init.seen, recent...)
	return init
}

// boxMatch is one acceptance policy. Every non-nil one reads the speculative
// state, so a group that ran in place on it would change the verdict.
type boxMatch struct {
	name string
	fn   func(spec *box, originals []*box) bool
}

func within(tol float64, also func(originals []*box) bool) func(*box, []*box) bool {
	return func(spec *box, originals []*box) bool {
		near := false
		for _, o := range originals {
			near = near || math.Abs(spec.v-o.v) <= tol
		}
		return near && also(originals)
	}
}

func boxMatches() []boxMatch {
	any := func([]*box) bool { return true }
	return []boxMatch{
		{"by-construction", nil},
		{"always", within(math.Inf(1), any)},
		{"never", within(-1, any)},
		{"first-redo", within(math.Inf(1), func(originals []*box) bool { return len(originals) >= 2 })},
		{"tolerance", within(1.5, any)},
	}
}

// counts is what of a run's Stats is a function of its options alone: lane
// nanoseconds and scheduler counters never are. With several lanes an aborting
// aux run's squashed groups stop where the squash finds them, and a
// reservations run's shape follows the host's compute grain, so there the
// comparison keeps only what those cannot move.
func counts(st Stats, opts Options) Stats {
	c := st
	c.LaneCPUCommittedNS, c.LaneCPUWastedNS, c.Steals, c.LocalHits, c.QueueDepthPeak = 0, 0, 0, 0, 0
	c.Panics = nil
	if opts.Workers == 1 {
		return c
	}
	if opts.Protocol == ProtocolReservations {
		return Stats{Inputs: c.Inputs, Groups: c.Groups, UsefulInvocations: c.UsefulInvocations, Aborts: c.Aborts, FallbackInputs: c.FallbackInputs}
	}
	c.Invocations, c.AuxCalls, c.AuxInputs = 0, 0, 0
	return c
}

type boxRun struct {
	outs, streamed []boxOut
	final          *box
	st             Stats
	panics         int
}

func runBox(compute Compute[int, *box, boxOut], match boxMatch, inputs []int, opts Options, stream bool) boxRun {
	d := New(compute, boxAux, StateOps[*box]{Clone: cloneBox, MatchAny: match.fn})
	initial := &box{v: 0.25, seen: []int{-1}}
	var run boxRun
	if stream {
		run.outs, run.final, run.st = d.RunStream(inputs, initial, opts, func(_ int, o boxOut) { run.streamed = append(run.streamed, o) })
	} else {
		run.outs, run.final, run.st = d.Run(inputs, initial, opts)
	}
	if initial.v != 0.25 || !slices.Equal(initial.seen, []int{-1}) {
		panic(fmt.Sprintf("the run wrote its initial state: %+v", initial))
	}
	run.panics, run.st = len(run.st.Panics), counts(run.st, opts)
	return run
}

func TestComputeStylesAreIndistinguishable(t *testing.T) {
	r := rng.New(0x0B0C5)
	matches := boxMatches()
	const cases = 600
	seen := map[string]int{}
	for c := 0; c < cases; c++ {
		n := 2 + r.Intn(60)
		inputs := seqInputs(n)
		opts := Options{
			UseAux:    true,
			Protocol:  Protocol(r.Intn(2)),
			GroupSize: 1 + r.Intn(12),
			Window:    r.Intn(4),
			RedoMax:   r.Intn(3),
			Rollback:  r.Intn(5),
			Workers:   []int{1, 2, 4}[r.Intn(3)],
			Seed:      r.Uint64(),
		}
		match := matches[r.Intn(len(matches))]
		stream := r.Bool(0.3)
		if r.Bool(0.3) {
			opts.GroupTimeout = time.Hour // the deadlined path, never expiring
		}
		panicAt := 0
		// A panic is injected only where the run speculates and nothing else
		// aborts, so the faulting input's first execution is always a contained
		// one.
		if (match.fn == nil || match.name == "always") && opts.GroupSize < n && r.Bool(0.3) {
			panicAt = 1 + r.Intn(n)
		}
		functional, inPlace := boxComputes(panicAt)
		name := fmt.Sprintf("case %d (n=%d match=%s stream=%v panicAt=%d opts=%+v)", c, n, match.name, stream, panicAt, opts)
		a := runBox(functional, match, inputs, opts, stream)
		b := runBox(inPlace, match, inputs, opts, stream)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s:\nfunctional %+v final %+v\nin place   %+v final %+v", name, a, a.final, b, b.final)
		}
		if len(a.outs) != n || len(a.final.seen) < 1 {
			t.Fatalf("%s: %d outputs, final %+v", name, len(a.outs), a.final)
		}
		if stream && !slices.Equal(a.streamed, a.outs) {
			t.Fatalf("%s: streamed %v, returned %v", name, a.streamed, a.outs)
		}
		if opts.Protocol == ProtocolAux {
			switch st := a.st; {
			case st.Redos > 0 && st.Aborts == 0:
				seen["accepted redo"]++
			case st.Aborts > 0 && a.panics == 0:
				seen["mismatch abort"]++
			case a.panics > 0:
				seen["contained panic"]++
			case st.Matches > 0:
				seen["clean match"]++
			}
		}
	}
	for _, outcome := range []string{"accepted redo", "mismatch abort", "contained panic", "clean match"} {
		if seen[outcome] < 10 {
			t.Errorf("the sample reached %q %d times", outcome, seen[outcome])
		}
	}
}

// TestComputeStylesUnderForcedDeadlines: a one-lane run under a seeded
// controller is a function of its options, forced deadline expiries included,
// so the two styles must agree on a run that times groups out.
func TestComputeStylesUnderForcedDeadlines(t *testing.T) {
	timedOut := 0
	for seed := uint64(0); seed < 24; seed++ {
		inputs := seqInputs(40)
		match := boxMatches()[seed%2] // by-construction, always
		var pair [2]boxRun
		functional, inPlace := boxComputes(0)
		for i, compute := range []Compute[int, *box, boxOut]{functional, inPlace} {
			pair[i] = runBox(compute, match, inputs, Options{
				UseAux: true, GroupSize: 5, Window: 2, RedoMax: 1, Rollback: 2, Workers: 1, Seed: seed,
				GroupTimeout: time.Millisecond, Sched: sched.NewRandom(seed, sched.WithForcedTimeouts(0.03)),
			}, false)
		}
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("seed %d:\nfunctional %+v final %+v\nin place   %+v final %+v", seed, pair[0], pair[0].final, pair[1], pair[1].final)
		}
		timedOut += pair[0].st.TimedOutGroups
	}
	if timedOut == 0 {
		t.Fatal("no group timed out")
	}
}

// TestCloneCounts pins how many copies a run makes: one per group when
// acceptance is by construction (the aux's private initial state, and group
// 0's), and under validation a start-state clone per speculative group plus a
// checkpoint per group a boundary follows — where a redo budget exists — plus
// one per redo.
func TestCloneCounts(t *testing.T) {
	const groups, g = 6, 4
	inputs := seqInputs(groups * g)
	matches := boxMatches()
	for _, tc := range []struct {
		match   boxMatch
		redoMax int
		want    int
		redos   int
	}{
		{matches[0], 2, groups, 0},
		{matches[0], 0, groups, 0},
		{matches[1], 2, 3*groups - 2, 0},
		{matches[1], 0, 2*groups - 1, 0}, // no redo budget: no checkpoint
		{matches[3], 2, 3*groups - 2 + (groups - 1), groups - 1},
	} {
		for _, workers := range []int{1, 2, 4} {
			var clones atomic.Int64
			_, inPlace := boxComputes(0)
			d := New(inPlace, boxAux, StateOps[*box]{
				Clone:    func(b *box) *box { clones.Add(1); return cloneBox(b) },
				MatchAny: tc.match.fn,
			})
			_, _, st := d.Run(inputs, &box{}, Options{
				UseAux: true, GroupSize: g, Window: 2, RedoMax: tc.redoMax, Rollback: 2, Workers: workers, Seed: 9,
			})
			if st.Groups != groups || st.Aborts != 0 || st.Redos != tc.redos {
				t.Fatalf("%s RedoMax %d: %+v", tc.match.name, tc.redoMax, st)
			}
			if got := int(clones.Load()); got != tc.want {
				t.Errorf("%s RedoMax %d Workers %d: %d clones over %d groups, want %d", tc.match.name, tc.redoMax, workers, got, groups, tc.want)
			}
		}
	}
}
