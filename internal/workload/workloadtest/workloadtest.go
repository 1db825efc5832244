// Package workloadtest is test support for the programs under
// internal/workload: checks a program's own test runs on its unexported
// compute, auxiliary code and clone. Nothing outside _test files imports it.
package workloadtest

import (
	"fmt"

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
