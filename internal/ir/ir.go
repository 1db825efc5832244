// Package ir is the intermediate representation shared by the STATS
// middle-end and back-end compilers (§3.4). The paper extends LLVM IR with
// metadata tables (in the style of CIL metadata) that describe the state
// space explicitly; this reproduction defines a compact typed IR with the
// same observable structure:
//
//   - functions, with instructions and a call graph, including tradeoff
//     placeholder calls (the T_42() calls of Figure 11);
//   - metadata tables describing tradeoffs (with their getValue functions,
//     themselves IR, which the back-end "JIT-executes" to resolve an index
//     to a value) and state dependences (with their compute, auxiliary and
//     comparison functions). The front-end's parser builds these rows
//     itself (frontend.TradeoffDecl and DepDecl embed them), and a row's
//     kind is tradeoff.Kind.
package ir

import (
	"fmt"

	"repro/internal/tradeoff"
)

// Opcode enumerates the instruction kinds the pipeline manipulates. Host
// computation is opaque (Extern); the pipeline's job is cloning,
// placeholder substitution, and callee rewiring — exactly the operations
// the paper's back-end performs.
type Opcode int

const (
	// Const materializes a constant value.
	Const Opcode = iota
	// Param reads the function's i-th parameter.
	Param
	// Add and Mul are the arithmetic getValue functions need.
	Add
	Mul
	// Call invokes another IR function by name.
	Call
	// Placeholder is a tradeoff reference: a call to the tradeoff's
	// placeholder function (T_42(42) in Figure 11). The back-end
	// replaces it according to the tradeoff's kind.
	Placeholder
	// TypeUse marks a variable whose declared type is a Type tradeoff;
	// the back-end re-types it and inserts casts as needed.
	TypeUse
	// Extern stands for opaque host computation.
	Extern
	// Ret returns the value produced by instruction Args[0].
	Ret
	// StateRead reads the state variable named by Name. The effect
	// analysis uses these to compute per-function read sets; the
	// evaluator treats them as opaque.
	StateRead
	// StateWrite writes the state variable named by Name. Auxiliary code
	// may only write its own dependence's state (the speculative start
	// state); the effect analysis enforces this.
	StateWrite
	// InputRead reads the input Index positions back from the current
	// invocation (0 = the most recent input). Auxiliary code may only
	// read offsets inside its dependence's declared window.
	InputRead
	// InputField reads the integer field named by Name from the current
	// input — the value slot-index expressions are affine in. The footprint
	// analysis models it as the symbolic variable of its affine domain.
	InputField
	// StateReadIdx reads one element of the state variable named by Name;
	// Args[0] is the instruction computing the element index. The footprint
	// analysis resolves the index to an affine expression over the input
	// (or widens to whole-state when it cannot).
	StateReadIdx
	// StateWriteIdx writes one element of the state variable named by Name;
	// Args[0] is the instruction computing the element index.
	StateWriteIdx
)

// opcodeCount is the number of defined opcodes; the verifier rejects
// instructions outside [0, opcodeCount).
const opcodeCount = int(StateWriteIdx) + 1

// Valid reports whether o is a defined opcode.
func (o Opcode) Valid() bool { return int(o) >= 0 && int(o) < opcodeCount }

// String returns the opcode's name.
func (o Opcode) String() string {
	switch o {
	case Const:
		return "const"
	case Param:
		return "param"
	case Add:
		return "add"
	case Mul:
		return "mul"
	case Call:
		return "call"
	case Placeholder:
		return "placeholder"
	case TypeUse:
		return "typeuse"
	case Extern:
		return "extern"
	case Ret:
		return "ret"
	case StateRead:
		return "stateread"
	case StateWrite:
		return "statewrite"
	case InputRead:
		return "inputread"
	case InputField:
		return "inputfield"
	case StateReadIdx:
		return "statereadidx"
	case StateWriteIdx:
		return "statewriteidx"
	default:
		return fmt.Sprintf("Opcode(%d)", int(o))
	}
}

// Pos is a source position (1-based line and column) threaded from the
// front-end so every diagnostic can point at real source. The zero Pos
// means "position unknown" (compiler-synthesized code with no source
// anchor).
type Pos struct {
	Line int
	Col  int
}

// IsValid reports whether the position carries real source coordinates.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String renders "line:col", or "-" for an unknown position.
func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	if p.Col <= 0 {
		return fmt.Sprintf("%d", p.Line)
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Instr is one instruction. Fields are used per-opcode: Value for Const;
// Index for Param (parameter index) and InputRead (offset back from the
// current input); Args for Add/Mul/Ret operand instruction indices;
// Callee for Call; Tradeoff for Placeholder and TypeUse; Name for
// TypeUse's variable and StateRead/StateWrite's state variable. Pos is
// the source position of the construct the instruction was lowered from.
type Instr struct {
	Op       Opcode
	Value    int64
	Index    int
	Args     []int
	Callee   string
	Tradeoff string
	Name     string
	Pos      Pos
}

// Function is an IR function.
type Function struct {
	Name   string
	Instrs []Instr
}

// Clone returns a deep copy of the function under a new name.
func (f *Function) Clone(name string) *Function {
	c := &Function{Name: name, Instrs: make([]Instr, len(f.Instrs))}
	for i, in := range f.Instrs {
		in.Args = append([]int(nil), in.Args...)
		c.Instrs[i] = in
	}
	return c
}

// Callees returns the distinct names this function calls.
func (f *Function) Callees() []string {
	seen := map[string]bool{}
	var out []string
	for _, in := range f.Instrs {
		if in.Op == Call && !seen[in.Callee] {
			seen[in.Callee] = true
			out = append(out, in.Callee)
		}
	}
	return out
}

// TradeoffRefs returns the distinct tradeoffs this function references
// (placeholders and type uses).
func (f *Function) TradeoffRefs() []string {
	seen := map[string]bool{}
	var out []string
	for _, in := range f.Instrs {
		if (in.Op == Placeholder || in.Op == TypeUse) && !seen[in.Tradeoff] {
			seen[in.Tradeoff] = true
			out = append(out, in.Tradeoff)
		}
	}
	return out
}

// TradeoffMeta is one row of the tradeoff metadata table (the TO[] array
// of Figure 11).
type TradeoffMeta struct {
	Name string
	// Kind says how the back-end substitutes a chosen value: a constant
	// replaces a placeholder call, a type re-types a variable, a function
	// replaces a placeholder callee.
	Kind tradeoff.Kind
	// GetValue is the IR function mapping an index to a value id; the
	// back-end executes it (the paper uses LLVM's dynamic compiler).
	GetValue string
	// Size is the number of legal indices (getMaxIndex()).
	Size int64
	// Default is getDefaultIndex().
	Default int64
	// ValueNames maps value ids to names for Type and Function
	// tradeoffs (e.g. type names, callee names); nil for constants.
	ValueNames []string
	// Aux marks tradeoffs cloned into auxiliary code.
	Aux bool
	// ClonedFrom is the original tradeoff's name for aux clones.
	ClonedFrom string
	// Pos is the source position of the tradeoff declaration.
	Pos Pos
}

// IndexExpr is one declared slot-footprint entry: either the whole state
// (Whole), or the affine index Stride*Field+Offset over one integer input
// field (Field == "" makes it the constant Offset). It is the footprint
// analysis's abstract domain element, shared between declared reservations
// (DepMeta.Reserve) and inferred accesses.
type IndexExpr struct {
	// Whole marks the ⊤ element: the entry covers every state slot.
	Whole bool
	// Field names the input field the index is affine in; "" means the
	// index is the constant Offset.
	Field string
	// Stride scales Field (ignored when Field is "").
	Stride int64
	// Offset is the additive constant.
	Offset int64
	// Pos is the source position of the declaration or access.
	Pos Pos
}

// String renders the expression in the front-end's concrete syntax.
func (e IndexExpr) String() string {
	switch {
	case e.Whole:
		return "*"
	case e.Field == "":
		return fmt.Sprintf("%d", e.Offset)
	case e.Stride == 1 && e.Offset == 0:
		return e.Field
	case e.Stride == 1:
		return fmt.Sprintf("%s+%d", e.Field, e.Offset)
	case e.Offset == 0:
		return fmt.Sprintf("%d*%s", e.Stride, e.Field)
	default:
		return fmt.Sprintf("%d*%s+%d", e.Stride, e.Field, e.Offset)
	}
}

// Same reports whether two expressions denote the same slot set, ignoring
// positions.
func (e IndexExpr) Same(o IndexExpr) bool {
	if e.Whole || o.Whole {
		return e.Whole == o.Whole
	}
	if e.Field != o.Field {
		return false
	}
	if e.Field == "" {
		return e.Offset == o.Offset
	}
	return e.Stride == o.Stride && e.Offset == o.Offset
}

// DepMeta is one row of the state-dependence metadata table.
type DepMeta struct {
	Name    string
	Input   string
	State   string
	Output  string
	Compute string
	// AuxCompute is filled by the middle-end: the cloned compute
	// function that serves as auxiliary code.
	AuxCompute string
	// Compare is the state-comparison method ("" when the dependence
	// needs none).
	Compare string
	// ByConstruction declares that every speculative state is one the
	// original producer could have made, so the dependence accepts it
	// without a comparison (`accept construction;`, exclusive with
	// Compare).
	ByConstruction bool
	// Window is the declared auxiliary input window: the number of
	// recent inputs the dependence's auxiliary code may read. 0 means
	// the declaration did not bound it.
	Window int
	// Slots is the declared number of state slots the dependence's
	// reservations decompose into; 0 means the state is not slotted
	// (whole-state single-slot reservations).
	Slots int
	// Reserve is the declared slot footprint: the index expressions the
	// developer promises cover every state element the compute touches.
	// The footprints analysis pass checks the promise against the
	// inferred accesses.
	Reserve []IndexExpr
	// Pos is the source position of the statedep declaration.
	Pos Pos
}

// Module is a compilation unit: functions plus metadata.
type Module struct {
	Functions map[string]*Function
	Tradeoffs []TradeoffMeta
	Deps      []DepMeta
}

// NewModule returns an empty module.
func NewModule() *Module {
	return &Module{Functions: map[string]*Function{}}
}

// AddFunction inserts f, panicking on duplicates (compiler bug).
func (m *Module) AddFunction(f *Function) {
	if _, dup := m.Functions[f.Name]; dup {
		panic(fmt.Sprintf("ir: duplicate function %s", f.Name))
	}
	m.Functions[f.Name] = f
}

// Tradeoff returns the named tradeoff row and whether it exists.
func (m *Module) Tradeoff(name string) (*TradeoffMeta, bool) {
	for i := range m.Tradeoffs {
		if m.Tradeoffs[i].Name == name {
			return &m.Tradeoffs[i], true
		}
	}
	return nil, false
}

// RemoveTradeoff deletes the named row, reporting whether it existed.
func (m *Module) RemoveTradeoff(name string) bool {
	for i := range m.Tradeoffs {
		if m.Tradeoffs[i].Name == name {
			m.Tradeoffs = append(m.Tradeoffs[:i], m.Tradeoffs[i+1:]...)
			return true
		}
	}
	return false
}

// InstrCount returns the module's total instruction count — the "binary
// size" proxy Table 1's size-increase column uses.
func (m *Module) InstrCount() int {
	n := 0
	for _, f := range m.Functions {
		n += len(f.Instrs)
	}
	return n
}

// Eval interprets the named function with the given arguments, supporting
// the arithmetic subset getValue functions use (Const/Param/Add/Mul/Ret).
// It returns an error for opaque or malformed functions.
func (m *Module) Eval(name string, args ...int64) (int64, error) {
	f, ok := m.Functions[name]
	if !ok {
		return 0, fmt.Errorf("ir: no function %s", name)
	}
	vals := make([]int64, len(f.Instrs))
	for i, in := range f.Instrs {
		switch in.Op {
		case Const:
			vals[i] = in.Value
		case Param:
			if in.Index < 0 || in.Index >= len(args) {
				return 0, fmt.Errorf("ir: %s: param %d out of range", name, in.Index)
			}
			vals[i] = args[in.Index]
		case Add:
			vals[i] = vals[in.Args[0]] + vals[in.Args[1]]
		case Mul:
			vals[i] = vals[in.Args[0]] * vals[in.Args[1]]
		case Ret:
			return vals[in.Args[0]], nil
		default:
			return 0, fmt.Errorf("ir: %s: cannot evaluate opcode %s", name, in.Op)
		}
	}
	return 0, fmt.Errorf("ir: %s: missing return", name)
}
