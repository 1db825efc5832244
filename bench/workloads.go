package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/internal/workload/bodytrack"
	"repro/internal/workload/facedet"
	"repro/internal/workload/fluidanimate"
	"repro/internal/workload/registry"
	"repro/internal/workload/streamclassifier"
	"repro/internal/workload/streamcluster"
	"repro/internal/workload/swaptions"
)

// engineWorkers is the worker width every registry case runs the engine
// at: the host's processors, capped at 4 so results from larger machines
// stay comparable with the 2-CPU reference host.
func engineWorkers() int {
	return min(runtime.NumCPU(), 4)
}

// program is what the benchmark knows about one registry workload beyond
// the workload.Workload interface: its exported input generator (timed as
// workload.inputgen_us_per_run) and the length of a result in the
// program's own output units.
type program struct {
	gen    func(size int)
	outLen func(workload.Result) int
}

var programs = map[string]program{
	"bodytrack": {
		gen:    func(size int) { bodytrack.GenFrames(size, false) },
		outLen: func(r workload.Result) int { return len(r.(bodytrack.Result).Frames) },
	},
	"facedet": {
		gen:    func(size int) { facedet.GenFrames(size, false) },
		outLen: func(r workload.Result) int { return len(r.(facedet.Result).Boxes) },
	},
	"fluidanimate": {
		gen:    func(size int) { fluidanimate.GenSteps(size, false) },
		outLen: func(r workload.Result) int { return len(r.(fluidanimate.Result).Final) },
	},
	"streamclassifier": {
		gen:    func(size int) { streamclassifier.EnsembleBatches(size, false) },
		outLen: func(r workload.Result) int { return len(r.(streamclassifier.Result).Pred) },
	},
	"streamcluster": {
		gen:    func(size int) { streamcluster.ShardBatches(size, false) },
		outLen: func(r workload.Result) int { return len(r.(streamcluster.Result).Clustering.Assign) },
	},
	"swaptions": {
		// RunSTATS builds the 34-instrument portfolio and prices its first 6.
		gen:    func(size int) { swaptions.Portfolio(34, false); swaptions.FlatBlocks(size, 6) },
		outLen: func(r workload.Result) int { return len(r.(swaptions.Result).Prices) },
	},
}

// caseDef is one (program, size, options) cell of a workload.
type caseDef struct {
	program string
	size    int
	opts    workload.SpecOptions
}

// workloadDef is one benchmark workload: a fixed list of cases that every
// repetition walks once, sequentially and speculatively.
type workloadDef struct {
	name string
	why  string
	// cases are registry programs; synthGroups, when set instead, are the
	// group sizes the synthetic dependence runs at through the facade.
	cases       []caseDef
	synthGroups []int
	// observed switches obs/telemetry on for the speculative side and
	// adds one folder poll, signals report and metrics scrape per
	// repetition to its timed region.
	observed bool
	// warmup is how many repetitions run before measuring; they are
	// charged to setup_s.
	warmup int
}

// synthInputs is the input count of the synthetic dependence.
const synthInputs = 4096

// auxOpts are the common speculative options of the registry cases.
func auxOpts() workload.SpecOptions {
	return workload.SpecOptions{
		UseAux: true, GroupSize: 8, Window: 2, RedoMax: 2, Rollback: 2, Workers: engineWorkers(),
	}
}

// workloads returns the six benchmark workloads. README.md gives each one
// a paragraph; the why strings are the one-line form BENCHMARK.json
// carries.
func workloads() []workloadDef {
	aux := auxOpts()
	starved := aux // aux code sees no recent input and gets one redo: validation fails early
	starved.Window, starved.RedoMax = 0, 1
	resv := aux
	resv.Protocol = core.ProtocolReservations
	// swaptions' auxiliary code extrapolates the price from the blocks in
	// its window alone; at the common window of 2 one run in ten leaves the
	// quality band (4x the originals' spread). A window of 8 blocks and two
	// groups per instrument keeps 600 seeds within 2.2x.
	wide := aux
	wide.GroupSize, wide.Window = 32, 8
	fine := []caseDef{
		{"streamclassifier", 1024, aux},
		{"streamcluster", 1024, aux},
		{"facedet", 64, aux},
	}
	return []workloadDef{
		{
			name:   "coarse",
			why:    "0.1-0.6 ms invocations (bodytrack, swaptions): workload compute is >95% of the time, engine bookkeeping <1%; the only workload with real parallel speed-up",
			cases:  []caseDef{{"bodytrack", 64, aux}, {"swaptions", 64, wide}},
			warmup: 5,
		},
		{
			name:   "fine",
			why:    "6-30 us invocations (streamclassifier, streamcluster, facedet): per-group core/pool/rng cost is comparable to compute, so engine optimisations show here",
			cases:  fine,
			warmup: 5,
		},
		{
			name:   "abort",
			why:    "every run aborts at an early boundary and ~95% of inputs fall back: squash, fallback and wasted lane work dominate; speculating harder must not cost here",
			cases:  []caseDef{{"fluidanimate", 256, aux}, {"facedet", 256, starved}, {"bodytrack", 32, starved}},
			warmup: 5,
		},
		{
			name:   "resv",
			why:    "reservations protocol on four programs: reserve/check/commit rounds, no aux code and no validation, so aux-only optimisations must read no change",
			cases:  []caseDef{{"swaptions", 32, resv}, {"streamclassifier", 1024, resv}, {"streamcluster", 1024, resv}, {"fluidanimate", 256, resv}},
			warmup: 5,
		},
		{
			name:     "observed",
			why:      "the fine cases with obs/telemetry enabled plus a folder poll, signals report and metrics scrape per repetition: fine vs observed is the telemetry overhead",
			cases:    fine,
			observed: true,
			warmup:   5,
		},
		{
			name:        "overhead",
			why:         "synthetic prefix-sum dependence with near-zero compute through the stats facade on one shared Runtime: wall per input is pure stats+core+pool+rng+obs cost",
			synthGroups: []int{4, 16, 64},
			warmup:      100,
		},
	}
}

// workloadByName returns the named workload definition.
func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// lookup resolves a case's program in the registry and the benchmark's
// own table.
func (c caseDef) lookup() (workload.Workload, program, error) {
	w, err := registry.ByName(c.program)
	if err != nil {
		return nil, program{}, err
	}
	p, ok := programs[c.program]
	if !ok {
		return nil, program{}, fmt.Errorf("no benchmark program entry for %q", c.program)
	}
	return w, p, nil
}

// synth is the synthetic state dependence of the overhead workload: the
// state is the running sum of the inputs and each output is the sum so
// far. Input i is base+i, so auxiliary code recovers the index of the last
// input it sees and with it the exact prefix sum: speculation always
// validates and the run measures the engine, not aborts.
type synth struct {
	base   uint64
	inputs []uint64
}

// newSynth derives the input vector from the seed.
func newSynth(seed uint64, n int) *synth {
	s := &synth{base: 1 + rng.New(seed).Uint64()%(1<<20), inputs: make([]uint64, n)}
	for i := range s.inputs {
		s.inputs[i] = s.base + uint64(i)
	}
	return s
}

// prefix is the closed-form sum of inputs 0..i.
func (s *synth) prefix(i uint64) uint64 {
	return (i+1)*s.base + i*(i+1)/2
}

func (s *synth) compute(_ *rng.Source, in uint64, st uint64) (uint64, uint64) {
	st += in
	return st, st
}

func (s *synth) aux(_ *rng.Source, init uint64, recent []uint64) uint64 {
	if len(recent) == 0 {
		return init
	}
	return init + s.prefix(recent[len(recent)-1]-s.base)
}

func (s *synth) clone(st uint64) uint64 { return st }

func (s *synth) match(spec uint64, originals []uint64) bool {
	for _, o := range originals {
		if o == spec {
			return true
		}
	}
	return false
}

// want is the closed-form output vector.
func (s *synth) want() synthResult {
	out := make(synthResult, len(s.inputs))
	for i := range out {
		out[i] = s.prefix(uint64(i))
	}
	return out
}

// synthResult is the synthetic dependence's output; its distance to a
// reference is the number of positions that differ.
type synthResult []uint64

// Distance implements workload.Result.
func (r synthResult) Distance(ref workload.Result) float64 {
	o := ref.(synthResult)
	diff := max(len(r), len(o)) - min(len(r), len(o))
	for i := 0; i < min(len(r), len(o)); i++ {
		if r[i] != o[i] {
			diff++
		}
	}
	return float64(diff)
}
