// Package tradeoff implements the paper's Tradeoff Interface (TI, §3.3): a
// tradeoff is "a piece of program text (constant, data type, function) whose
// value is chosen from a range supplied by developers", sorted by index.
//
// A tradeoff exposes exactly the three methods of Figure 10:
//
//	getMaxIndex()      -> MaxIndex
//	getValue(i)        -> Value
//	getDefaultIndex()  -> DefaultIndex
//
// The middle-end clones tradeoffs into auxiliary code so their indices can
// be set independently from the rest of the program; the back-end resolves
// an index to a value and substitutes it (constant replacement, variable
// re-typing, or callee replacement) according to the tradeoff's kind.
//
// A kind's spelling ("constant", "type", "function") is written by
// Kind.String and read back by ParseKind only: the front-end's `kind`
// statement and the IR's JSON decoder both parse through it, and every
// other package switches on the Kind value.
package tradeoff

import "fmt"

// Kind classifies what program text a tradeoff stands for, which determines
// how the back-end substitutes a chosen value (§3.4, "Setting a tradeoff").
type Kind int

const (
	// Constant tradeoffs replace a placeholder call with a constant value
	// (e.g. bodytrack's number of annealing layers).
	Constant Kind = iota
	// Type tradeoffs change the declared type — in this reproduction, the
	// arithmetic precision — of a variable (e.g. float vs double).
	Type
	// Function tradeoffs replace a placeholder callee with a specific
	// implementation (e.g. one of several sqrt versions).
	Function
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Constant:
		return "constant"
	case Type:
		return "type"
	case Function:
		return "function"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind inverts String: it returns the kind spelled s, and false for
// any other spelling.
func ParseKind(s string) (Kind, bool) {
	for k := Constant; k <= Function; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Options enumerates the legal values of a tradeoff, mirroring the
// Tradeoff_options class of Figure 10.
type Options interface {
	// MaxIndex returns the number of possible values.
	MaxIndex() int64
	// Value returns the i-th possible value; i must be in [0, MaxIndex).
	Value(i int64) any
	// DefaultIndex returns the index used when the tradeoff appears
	// outside auxiliary code.
	DefaultIndex() int64
}

// T is a named tradeoff: a kind plus its options. The paper's baseline
// ("original version") is obtained by pinning every tradeoff to its default
// index and satisfying all state dependences conventionally.
type T struct {
	Name string
	Kind Kind
	Opts Options
}

// New returns a tradeoff with the given name, kind, and options. It panics
// if the options are malformed (no values, or default out of range), since
// a tradeoff is developer-supplied program text and a bad one is a bug.
func New(name string, kind Kind, opts Options) T {
	if opts == nil || opts.MaxIndex() <= 0 {
		panic("tradeoff: options must enumerate at least one value")
	}
	if d := opts.DefaultIndex(); d < 0 || d >= opts.MaxIndex() {
		panic(fmt.Sprintf("tradeoff %s: default index %d out of [0,%d)", name, d, opts.MaxIndex()))
	}
	return T{Name: name, Kind: kind, Opts: opts}
}

// Default returns the value at the default index.
func (t T) Default() any { return t.Opts.Value(t.Opts.DefaultIndex()) }

// Clone returns a copy of the tradeoff under a new name. The middle-end
// uses this to give auxiliary code private tradeoff copies (§3.4,
// "Generating IR with auxiliary code").
func (t T) Clone(name string) T { return T{Name: name, Kind: t.Kind, Opts: t.Opts} }

// IntRange is an Options over the integers lo..hi (inclusive), with a
// configurable default. It covers constant tradeoffs like annealing-layer
// or particle counts.
type IntRange struct {
	Lo, Hi  int64
	Default int64 // an index into the range, not a value
}

// MaxIndex implements Options.
func (r IntRange) MaxIndex() int64 { return r.Hi - r.Lo + 1 }

// Value implements Options.
func (r IntRange) Value(i int64) any {
	if i < 0 || i >= r.MaxIndex() {
		panic(fmt.Sprintf("tradeoff: index %d out of [0,%d)", i, r.MaxIndex()))
	}
	return r.Lo + i
}

// DefaultIndex implements Options.
func (r IntRange) DefaultIndex() int64 { return r.Default }

// Enum is an Options over an explicit value list. It covers type tradeoffs
// (precision names) and function tradeoffs (implementation names).
type Enum struct {
	Values  []any
	Default int64
}

// MaxIndex implements Options.
func (e Enum) MaxIndex() int64 { return int64(len(e.Values)) }

// Value implements Options.
func (e Enum) Value(i int64) any {
	if i < 0 || i >= e.MaxIndex() {
		panic(fmt.Sprintf("tradeoff: index %d out of [0,%d)", i, e.MaxIndex()))
	}
	return e.Values[i]
}

// DefaultIndex implements Options.
func (e Enum) DefaultIndex() int64 { return e.Default }

// Precision is the value domain of Type tradeoffs in this reproduction: the
// paper re-types variables between float and double; we model the same
// quality/cost effect as a quantization level applied by the workload.
type Precision int

const (
	// Half quantizes intermediate values aggressively (cheapest, least
	// accurate).
	Half Precision = iota
	// Single behaves like IEEE float32.
	Single
	// Double is full float64 arithmetic (the default in the originals).
	Double
)

// String returns the precision's name.
func (p Precision) String() string {
	switch p {
	case Half:
		return "half"
	case Single:
		return "single"
	case Double:
		return "double"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// PrecisionEnum returns the standard Type-tradeoff options (half, single,
// double) with double as the default, matching the originals' behaviour.
func PrecisionEnum() Enum {
	return Enum{Values: []any{Half, Single, Double}, Default: 2}
}

// CostFactor returns the relative compute cost of arithmetic at this
// precision, used by the workloads' cost models: lower precision is cheaper.
func (p Precision) CostFactor() float64 {
	switch p {
	case Half:
		return 0.55
	case Single:
		return 0.75
	default:
		return 1.0
	}
}

// Quantize rounds x to the precision's granularity, modeling the accuracy
// loss of narrower types.
func (p Precision) Quantize(x float64) float64 {
	switch p {
	case Half:
		return float64(int64(x*256)) / 256
	case Single:
		return float64(float32(x))
	default:
		return x
	}
}
