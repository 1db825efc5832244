// Package workloadtest is test support for the programs under
// internal/workload: checks a program's own test runs on its unexported
// compute, auxiliary code, clone and reservation ops, and on its
// declaration. Nothing outside _test files imports it.
package workloadtest

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/rng"
	"repro/internal/tradeoff"
	"repro/internal/workload"
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

// Reservation is a program's reservation dependence as the program builds
// it: the ReserveOps it attaches, the initial state and the inputs of a run.
type Reservation[I, S any] struct {
	Ops     core.ReserveOps[I, S]
	Initial S
	Inputs  []I
}

// Declaration checks that d.Declaration, the program's .stats file, states
// the program d describes; matchAny reports whether the program's StateOps
// set MatchAny, and resv is its reservation dependence (nil: it has none).
// It reports every disagreement:
//
//   - tradeoff i is TO_<Tradeoffs[i].Name>, of the program's kind, value
//     count and default index, and a constant declares the values of the
//     program's tradeoff.IntRange. The one exception: a constant whose
//     values no range states (bodytrack's and facedet's Particles, 16…256
//     in powers of two) declares its index range 0..N-1;
//   - there are NumDeps statedeps, and each declares compare exactly when
//     the program validates (MatchAny set, ComparisonLOC > 0) and accept
//     construction otherwise;
//   - exactly one statedep declares slots when resv is set, and none
//     otherwise; its slots are NumSlots(Initial), and its reserve entries,
//     evaluated on each input's fields, name the slots Footprint(in,
//     Initial) does.
func Declaration[I, S any](d workload.Descriptor, matchAny bool, resv *Reservation[I, S]) error {
	fo, err := frontend.Translate(d.Declaration)
	if err != nil {
		return err
	}
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	var declared, program []string
	for _, t := range fo.Tradeoffs {
		declared = append(declared, describe(t.Name, t.Kind, t.Size, t.Default, t.Lo, t.Hi))
	}
	for _, t := range d.Tradeoffs {
		lo, hi := int64(0), t.Opts.MaxIndex()-1
		if r, ok := t.Opts.(tradeoff.IntRange); ok {
			lo, hi = r.Lo, r.Hi
		}
		program = append(program, describe("TO_"+t.Name, t.Kind, t.Opts.MaxIndex(), t.Opts.DefaultIndex(), lo, hi))
	}
	if !slices.Equal(declared, program) {
		bad("tradeoffs declared\n  %s\nthe program's\n  %s", strings.Join(declared, "\n  "), strings.Join(program, "\n  "))
	}
	if len(fo.Deps) != d.NumDeps {
		bad("%d statedeps declared, the program has %d", len(fo.Deps), d.NumDeps)
	}
	if matchAny != (d.ComparisonLOC > 0) {
		bad("the program sets MatchAny %v with ComparisonLOC %d", matchAny, d.ComparisonLOC)
	}
	var slotted []frontend.DepDecl
	for _, dep := range fo.Deps {
		if (dep.Compare != "") != matchAny || dep.ByConstruction == matchAny {
			bad("statedep %s: compare %q, accept construction %v; the program validates: %v", dep.Name, dep.Compare, dep.ByConstruction, matchAny)
		}
		if dep.Slots > 0 {
			slotted = append(slotted, dep)
		}
	}
	if len(slotted) > 1 || (len(slotted) == 1) != (resv != nil) {
		bad("%d statedeps declare slots; the program has a reservation dependence: %v", len(slotted), resv != nil)
	} else if resv != nil {
		dep := slotted[0]
		if n := resv.Ops.NumSlots(resv.Initial); dep.Slots != n {
			bad("statedep %s: declared %d slots, the program has %d", dep.Name, dep.Slots, n)
		}
		for i, in := range resv.Inputs {
			if got, want := sorted(footprint(dep.Reserve, in, dep.Slots)), sorted(resv.Ops.Footprint(in, resv.Initial)); !slices.Equal(got, want) {
				bad("statedep %s: input %d: declared footprint %v, the program's %v", dep.Name, i, got, want)
				break
			}
		}
	}
	return errors.Join(errs...)
}

// describe renders a tradeoff's checked facts, a constant's values included.
func describe(name string, k tradeoff.Kind, size, def, lo, hi int64) string {
	if k != tradeoff.Constant {
		return fmt.Sprintf("%s %s of %d, default %d", name, k, size, def)
	}
	return fmt.Sprintf("%s %s %d..%d, default %d", name, k, lo, hi, def)
}

// footprint returns the slots the reserve entries name on the fields of in
// over n slots; an entry over a field in lacks names -1.
func footprint(es []ir.IndexExpr, in any, n int) []int {
	var slots []int
	for _, e := range es {
		switch {
		case e.Whole:
			for s := range n {
				slots = append(slots, s)
			}
		case e.Field == "":
			slots = append(slots, int(e.Offset))
		default:
			v := int64(-1)
			if f := reflect.ValueOf(in).FieldByName(e.Field); f.CanInt() {
				v = e.Stride*f.Int() + e.Offset
			}
			slots = append(slots, int(v))
		}
	}
	return slots
}

// sorted returns the distinct elements of s in order, leaving s as it is.
func sorted(s []int) []int {
	s = slices.Clone(s)
	slices.Sort(s)
	return slices.Compact(s)
}
