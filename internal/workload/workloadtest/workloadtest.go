// Package workloadtest is test support for the programs under
// internal/workload: checks a program's own test runs on its unexported
// compute, auxiliary code and clone. Nothing outside _test files imports it.
package workloadtest

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// Isolation checks the two things the engine's copies rely on now that
// computes update the state they are handed in place.
//
// core.StateOps.Clone, along the chain of inputs from s: at each state it hands
// compute a clone of s and requires s to print the same afterwards — the clone
// was deep enough — and the call on the clone to produce what the call on s
// itself then does from an equal random stream.
//
// core.Aux: two calls, each on its own clone of s, return states nothing else
// can reach — running the chain in place on the second product changes neither
// the first nor s. A group under by-construction acceptance runs in place on
// what its aux returned, so an aux handing out a cached or shared state would
// be written by several lanes at once.
//
// States and outputs are compared as %v prints them: floats in their shortest
// round-trip form, so equal strings are equal bits.
func Isolation[I, S, O any](compute core.Compute[I, S, O], aux core.Aux[I, S], clone func(S) S, s S, inputs []I) error {
	r := rng.New(1)
	for _, recent := range [][]I{nil, inputs[:min(2, len(inputs))]} {
		first := aux(r.Split(), clone(s), recent)
		second := aux(r.Split(), clone(s), recent)
		before := fmt.Sprintf("%v %v", first, s)
		for _, in := range inputs {
			_, second = compute(r.Split(), in, second)
		}
		if after := fmt.Sprintf("%v %v", first, s); after != before {
			return fmt.Errorf("aux over %d inputs returned a state something else can reach: computing on it wrote\n before %s\n after  %s", len(recent), before, after)
		}
	}
	for i, in := range inputs {
		src := *r.Split()
		again := src
		before := fmt.Sprintf("%v", s)
		o, next := compute(&src, in, clone(s))
		onClone := fmt.Sprintf("%v %v", o, next)
		if after := fmt.Sprintf("%v", s); after != before {
			return fmt.Errorf("input %d: compute on a clone wrote the source:\n before %s\n after  %s", i, before, after)
		}
		o, s = compute(&again, in, s)
		if inPlace := fmt.Sprintf("%v %v", o, s); inPlace != onClone {
			return fmt.Errorf("input %d: compute on a clone returned\n %s\non the state itself\n %s", i, onClone, inPlace)
		}
	}
	return nil
}

// Scratch checks that a kernel recycling per-call scratch (parked in package
// slots between calls) keeps every buffer private to one call. step is the
// kernel with its parameters bound, and each of states starts a chain over
// inputs, with a stream of its own.
//
// Alone: each chain runs on the calling goroutine, and after every step a
// decoy step on another state follows at once — it draws the scratch the step
// just parked — and the state the step returned must print the same after
// it. A returned state that still held a recycled buffer would print what the
// decoy wrote.
//
// Together: every chain runs again from a clone of its state, all at once,
// one goroutine each, and must print what it printed alone after every step
// and draw the same next normal. Under -race a buffer two calls share is a
// reported race as well.
func Scratch[I, S any](step func(r *rng.Source, in I, s S) S, clone func(S) S, states []S, inputs []I) error {
	chain := func(k int, s S, decoy *S) ([]string, error) {
		trace := make([]string, 0, len(inputs)+1)
		r := rng.New(uint64(k) + 1)
		for i, in := range inputs {
			s = step(r, in, s)
			printed := fmt.Sprintf("%v", s)
			if decoy != nil {
				*decoy = step(rng.New(^uint64(i)), in, *decoy)
				if again := fmt.Sprintf("%v", s); again != printed {
					return nil, fmt.Errorf("chain %d input %d: the next call wrote the state a step returned, which holds pooled scratch:\n before %s\n after  %s", k, i, printed, again)
				}
			}
			trace = append(trace, printed)
		}
		return append(trace, fmt.Sprintf("next draw %v", r.Norm())), nil
	}
	alone := make([][]string, len(states))
	for k, s := range states {
		decoy := clone(states[(k+1)%len(states)])
		var err error
		if alone[k], err = chain(k, clone(s), &decoy); err != nil {
			return err
		}
	}
	together := make([][]string, len(states))
	var wg sync.WaitGroup
	for k, s := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[k], _ = chain(k, clone(s), nil)
		}()
	}
	wg.Wait()
	for k := range states {
		for i := range alone[k] {
			if together[k][i] != alone[k][i] {
				return fmt.Errorf("chain %d, step %d of %d: stepped beside %d other chains it printed\n %s\nstepped alone\n %s", k, i, len(inputs), len(states)-1, together[k][i], alone[k][i])
			}
		}
	}
	return nil
}

// NoAllocs checks that a kernel recycling per-call scratch allocates nothing
// per call, warm and cold-by-collection. newLoop builds a fresh loop over the
// kernel, one kernel call per call of the loop.
//
// Warm: runs calls of one loop, counted as testing.AllocsPerRun counts them.
//
// Collected: a call right after two garbage collections, five times over. A
// sync.Pool is empty by then; the slots of the kernel's recycle.List must
// not be.
func NoAllocs(newLoop func() func(), runs int) error {
	if got := testing.AllocsPerRun(runs, newLoop()); got != 0 {
		return fmt.Errorf("warm: %v allocations per call, want 0", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	loop := newLoop()
	loop()
	var before, after runtime.MemStats
	for range 5 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		loop()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			return fmt.Errorf("after two collections: %d allocations, want 0", n)
		}
	}
	return nil
}
