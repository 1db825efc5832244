// Package space models the paper's state space (§3.3): the design space the
// autotuner explores. Its dimensions are, verbatim from the paper, "all
// tradeoffs, ... how often a state dependence is satisfied with auxiliary
// code, ... the number of previous inputs an auxiliary code will consider,
// ... the maximum number of times the STATS runtime can execute an original
// producer of a given state dependence, and ... the number of threads to
// dedicate to the TLP already available in the original program."
//
// A Config picks one index per dimension. The back-end instantiates a
// Config against the IR; the profiler measures it; the autotuner navigates
// between Configs.
package space

import (
	"fmt"
	"strings"

	"repro/internal/rng"
)

// DimKind identifies what a dimension controls, so the back-end and runtime
// know how to apply a chosen index.
type DimKind int

const (
	// TradeoffDim is the index of a (cloned, auxiliary-code) tradeoff.
	TradeoffDim DimKind = iota
	// AuxEnable decides whether a state dependence is satisfied with
	// auxiliary code (1) or conventionally (0).
	AuxEnable
	// AuxWindow is the number of previous inputs the auxiliary code
	// consumes to build its speculative state.
	AuxWindow
	// RedoMax is the maximum number of times the runtime may re-execute
	// the original producer before aborting speculation.
	RedoMax
	// Rollback is how many inputs a re-execution goes back.
	Rollback
	// GroupSize is the cardinality of the input groups the runtime
	// overlaps ("STATS automatically decides what is the most convenient
	// group cardinality", §3.1).
	GroupSize
	// ThreadSplit is the number of threads dedicated to the program's
	// original TLP; the remainder serve state dependences.
	ThreadSplit
)

// String returns the kind's name.
func (k DimKind) String() string {
	switch k {
	case TradeoffDim:
		return "tradeoff"
	case AuxEnable:
		return "aux-enable"
	case AuxWindow:
		return "aux-window"
	case RedoMax:
		return "redo-max"
	case Rollback:
		return "rollback"
	case GroupSize:
		return "group-size"
	case ThreadSplit:
		return "thread-split"
	default:
		return fmt.Sprintf("DimKind(%d)", int(k))
	}
}

// Dimension is one axis of the state space. Values are indices in
// [0, Size); Values, when non-nil, maps an index to the concrete integer the
// runtime consumes (e.g. a group size of 8 at index 2).
type Dimension struct {
	Name    string
	Kind    DimKind
	Size    int64
	Default int64
	// Dep is the state dependence this dimension belongs to, or "" for
	// global dimensions such as the thread split.
	Dep string
	// Values maps an index to a concrete value; nil means the identity.
	Values []int64
}

// Value returns the concrete value at index i.
func (d Dimension) Value(i int64) int64 {
	if i < 0 || i >= d.Size {
		panic(fmt.Sprintf("space: %s index %d out of [0,%d)", d.Name, i, d.Size))
	}
	if d.Values == nil {
		return i
	}
	return d.Values[i]
}

// Space is an ordered set of dimensions.
type Space struct {
	dims  []Dimension
	index map[string]int
}

// New returns an empty space.
func New() *Space {
	return &Space{index: map[string]int{}}
}

// Add appends a dimension. It panics on duplicate names, zero sizes, or
// defaults out of range — dimensions are authored by the middle-end and a
// malformed one is a compiler bug.
func (s *Space) Add(d Dimension) {
	if d.Size <= 0 {
		panic(fmt.Sprintf("space: dimension %s has size %d", d.Name, d.Size))
	}
	if d.Default < 0 || d.Default >= d.Size {
		panic(fmt.Sprintf("space: dimension %s default %d out of [0,%d)", d.Name, d.Default, d.Size))
	}
	if d.Values != nil && int64(len(d.Values)) != d.Size {
		panic(fmt.Sprintf("space: dimension %s has %d values for size %d", d.Name, len(d.Values), d.Size))
	}
	if _, dup := s.index[d.Name]; dup {
		panic(fmt.Sprintf("space: duplicate dimension %s", d.Name))
	}
	s.index[d.Name] = len(s.dims)
	s.dims = append(s.dims, d)
}

// Dims returns the dimensions in order.
func (s *Space) Dims() []Dimension { return s.dims }

// Len returns the number of dimensions.
func (s *Space) Len() int { return len(s.dims) }

// Find returns the position of the named dimension and whether it exists.
func (s *Space) Find(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Cardinality returns the number of points in the space as a float64 (the
// paper reports ~1.3 million points on average; exact integer arithmetic is
// unnecessary and can overflow).
func (s *Space) Cardinality() float64 {
	card := 1.0
	for _, d := range s.dims {
		card *= float64(d.Size)
	}
	return card
}

// Config is one point in a space: an index per dimension, in order.
type Config []int64

// Clone returns a copy of c.
func (c Config) Clone() Config { return append(Config(nil), c...) }

// Key returns a canonical string form of c, usable as a map key for
// memoizing profiler results.
func (c Config) Key() string {
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// Default returns the configuration with every dimension at its default
// index: the paper's baseline ("we set all tradeoffs to their default value
// and satisfy all state dependences conventionally").
func (s *Space) Default() Config {
	c := make(Config, len(s.dims))
	for i, d := range s.dims {
		c[i] = d.Default
	}
	return c
}

// Validate checks that c is a legal point of s.
func (s *Space) Validate(c Config) error {
	if len(c) != len(s.dims) {
		return fmt.Errorf("space: config has %d entries for %d dimensions", len(c), len(s.dims))
	}
	for i, v := range c {
		if v < 0 || v >= s.dims[i].Size {
			return fmt.Errorf("space: %s index %d out of [0,%d)", s.dims[i].Name, v, s.dims[i].Size)
		}
	}
	return nil
}

// Random returns a uniformly random configuration.
func (s *Space) Random(r *rng.Source) Config {
	c := make(Config, len(s.dims))
	for i, d := range s.dims {
		c[i] = int64(r.Intn(int(d.Size)))
	}
	return c
}

// Neighbor returns a copy of c with one random dimension nudged by at most
// radius steps (wrapping is not used; moves clamp at the edges). Dimensions
// of size 1 are skipped when possible.
func (s *Space) Neighbor(r *rng.Source, c Config, radius int64) Config {
	n := c.Clone()
	if len(s.dims) == 0 {
		return n
	}
	if radius < 1 {
		radius = 1
	}
	for attempt := 0; attempt < 8; attempt++ {
		i := r.Intn(len(s.dims))
		d := s.dims[i]
		if d.Size == 1 {
			continue
		}
		step := int64(r.Intn(int(2*radius+1))) - radius
		if step == 0 {
			step = 1
		}
		v := n[i] + step
		if v < 0 {
			v = 0
		}
		if v >= d.Size {
			v = d.Size - 1
		}
		n[i] = v
		return n
	}
	return n
}

// Crossover returns a uniform crossover of a and b.
func (s *Space) Crossover(r *rng.Source, a, b Config) Config {
	c := make(Config, len(s.dims))
	for i := range s.dims {
		if r.Bool(0.5) {
			c[i] = a[i]
		} else {
			c[i] = b[i]
		}
	}
	return c
}

// Lookup returns the concrete value of the named dimension under c, and
// whether the dimension exists.
func (s *Space) Lookup(c Config, name string) (int64, bool) {
	i, ok := s.index[name]
	if !ok {
		return 0, false
	}
	return s.dims[i].Value(c[i]), true
}

// Set assigns the named dimension's index in c (in place) and reports
// whether the dimension exists.
func (s *Space) Set(c Config, name string, idx int64) bool {
	i, ok := s.index[name]
	if !ok {
		return false
	}
	if idx < 0 || idx >= s.dims[i].Size {
		panic(fmt.Sprintf("space: Set(%s, %d) out of [0,%d)", name, idx, s.dims[i].Size))
	}
	c[i] = idx
	return true
}

// AddDependence appends the standard per-dependence dimensions: aux
// enablement, the aux input window, the redo budget, the rollback window,
// and the group size. windows, redos, rollbacks and groups list the
// concrete values each dimension may take.
func (s *Space) AddDependence(dep string, windows, redos, rollbacks, groups []int64) {
	s.Add(Dimension{Name: dep + ".aux", Kind: AuxEnable, Size: 2, Default: 0, Dep: dep})
	s.Add(Dimension{Name: dep + ".window", Kind: AuxWindow, Size: int64(len(windows)), Values: windows, Dep: dep})
	s.Add(Dimension{Name: dep + ".redo", Kind: RedoMax, Size: int64(len(redos)), Values: redos, Dep: dep})
	s.Add(Dimension{Name: dep + ".rollback", Kind: Rollback, Size: int64(len(rollbacks)), Values: rollbacks, Dep: dep})
	s.Add(Dimension{Name: dep + ".group", Kind: GroupSize, Size: int64(len(groups)), Values: groups, Dep: dep})
}

// AddThreadSplit appends the global original-TLP thread dimension with
// values 1..maxThreads, defaulting to maxThreads (all threads to the
// original program, none to state dependences — the baseline).
func (s *Space) AddThreadSplit(maxThreads int64) {
	s.Add(Dimension{
		Name:    "threads.original",
		Kind:    ThreadSplit,
		Size:    maxThreads,
		Default: maxThreads - 1,
		Values:  seq(1, maxThreads),
	})
}

func seq(lo, hi int64) []int64 {
	out := make([]int64, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}
