package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sched"
)

// fakeAdmission admits until a failed Record and keeps what it was asked.
type fakeAdmission struct {
	mu      sync.Mutex
	denying bool
	allows  int
	records []bool
}

func (a *fakeAdmission) Allow() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.allows++
	return !a.denying
}

func (a *fakeAdmission) Record(failed bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.records = append(a.records, failed)
	a.denying = a.denying || failed
}

func TestBreakerGatesSpeculation(t *testing.T) {
	// The engine's side of the Admission contract: a run that would
	// speculate asks Allow exactly once, and a run that would not never asks;
	// a speculative run Records exactly once, failed exactly when it aborted,
	// panicked or timed out; a denied run executes conventionally (Groups 1,
	// BreakerDenied 1) and Records nothing. Outputs are sequential throughout.
	inputs := seqInputs(12)
	exact := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	noAux := New(deterministicCompute, nil, walkOps())
	panicking := New(deterministicCompute, func(*rng.Source, walkState, []int) walkState { panic("aux bug") }, walkOps())
	spec := Options{UseAux: true, GroupSize: 3, Window: 12, Workers: 2, Seed: 7}
	with := func(edit func(*Options)) Options {
		o := spec
		edit(&o)
		return o
	}
	for _, c := range []struct {
		name           string
		d              *Dependence[int, walkState, int]
		opts           Options
		denying        bool // the fake refuses from the start
		asks, wantFail bool
	}{
		{"healthy", exact, spec, false, true, false},
		{"reservations", noAux, with(func(o *Options) { o.Protocol = ProtocolReservations }), false, true, false},
		{"aborting", New(deterministicCompute, badAux, walkOps()), spec, false, true, true},
		{"panicking", panicking, spec, false, true, true},
		{"timed out", exact, with(func(o *Options) {
			o.GroupTimeout, o.Sched = time.Millisecond, sched.NewRandom(3, sched.WithForcedTimeouts(1))
		}), false, true, true},
		{"denied", exact, spec, true, true, false},
		{"no aux", exact, with(func(o *Options) { o.UseAux = false }), false, false, false},
		{"one group", exact, with(func(o *Options) { o.GroupSize = len(inputs) }), false, false, false},
		{"aux protocol without aux code", noAux, spec, false, false, false},
	} {
		a := &fakeAdmission{denying: c.denying}
		c.opts.Breaker = a
		outs, _, st := c.d.Run(inputs, walkState{}, c.opts)
		checkOutputs(t, outs, wantOutputs(inputs))
		failed := st.Aborts > 0 || st.PanickedGroups > 0 || st.TimedOutGroups > 0
		speculated, wantDenied := c.asks && !c.denying, 0
		if c.denying {
			wantDenied = 1
		}
		if failed != c.wantFail || (st.Groups > 1) != speculated || st.BreakerDenied != wantDenied {
			t.Fatalf("%s: failed=%v groups=%d denied=%d, want failed=%v speculated=%v denied=%d (%+v)",
				c.name, failed, st.Groups, st.BreakerDenied, c.wantFail, speculated, wantDenied, st)
		}
		wantAllows, wantRecords := 0, []bool(nil)
		if c.asks {
			wantAllows = 1
		}
		if speculated {
			wantRecords = []bool{failed}
		}
		if a.allows != wantAllows || !slices.Equal(a.records, wantRecords) {
			t.Fatalf("%s: Allow asked %d times, Records %v; want %d, %v",
				c.name, a.allows, a.records, wantAllows, wantRecords)
		}
	}
}
