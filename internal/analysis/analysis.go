// Package analysis is the STATS static-analysis suite (statsvet): a pass
// framework over the typed internal/ir module that proves auxiliary code
// safe *before* it ever speculates. The runtime discovers invariant
// violations as validation mismatches and aborts — the expensive path
// Figure 4 exists to avoid; these passes catch malformed SDI/TI programs
// at compile time instead, in the spirit of synergistic static+speculative
// optimization (prove statically what you can, pay speculation only for
// what you can't).
//
// Four IR passes ship today:
//
//   - verify: IR well-formedness — operand arity per opcode,
//     def-before-use, call-graph consistency, metadata integrity, and
//     structural congruence between the mid-end's deep-cloned auxiliary
//     code and its original compute functions.
//   - effects: an interprocedural effect/purity dataflow that computes
//     per-function state read/write sets and input-window footprints,
//     then flags auxiliary code that reads inputs outside its declared
//     statedep window, reads foreign state, or writes anything but the
//     speculative start state.
//   - footprints: the same dataflow at slot granularity — affine index
//     expressions over the current input, widened to ⊤ only when
//     genuinely dynamic — proving every declared reservation footprint
//     is a sound over-approximation of the inferred one.
//   - lints: tradeoff hygiene — unused/unreachable tradeoffs, knobs whose
//     declared range can never be exercised, and function tradeoffs whose
//     variants disagree in signature.
//
// Source-level lints over the front-end declarations (before the mid-end
// pins and deletes unused tradeoffs, which would hide them) run in
// AnalyzeProgram. Go-source analyzers for runtime-API misuse live in the
// apivet subpackage and report the same Diagnostic record.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/frontend"
	"repro/internal/ir"
)

// Severity classifies a diagnostic: Error findings make a module unsafe
// to emit (statsc -vet refuses, stats.Runtime rejects); Warning findings
// are hygiene problems that cannot corrupt a run.
type Severity int

const (
	// Warning marks a finding that is suspicious but not unsound.
	Warning Severity = iota
	// Error marks a finding that makes the module unsafe to run.
	Error
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic is one finding — of an IR pass, a source lint or a Go
// analyzer; it is the only finding record statsvet, statsc -vet and
// stats.Runtime report. File names the analyzed input (empty for a module
// held in memory). Pos is the source position threaded from the front-end
// (zero when the construct has no source anchor); Fn and Instr locate the
// offending IR instruction (Instr is -1 for metadata-level findings); Var
// names the offending variable, tradeoff or function.
type Diagnostic struct {
	File     string
	Pass     string
	Severity Severity
	Pos      ir.Pos
	Fn       string
	Instr    int
	Var      string
	Msg      string
}

// String renders the diagnostic on one line:
//
//	file:line:col: severity: pass: message (func F, var V)
//
// An empty file, an invalid position and an empty locator are omitted.
func (d Diagnostic) String() string {
	loc := d.File
	if d.Pos.IsValid() {
		loc = strings.TrimPrefix(loc+":"+d.Pos.String(), ":")
	}
	s := fmt.Sprintf("%s: %s: %s", d.Severity, d.Pass, d.Msg)
	if loc != "" {
		s = loc + ": " + s
	}
	var at []string
	if d.Fn != "" {
		at = append(at, "func "+d.Fn)
	}
	if d.Var != "" {
		at = append(at, "var "+d.Var)
	}
	if len(at) > 0 {
		s += " (" + strings.Join(at, ", ") + ")"
	}
	return s
}

// MarshalJSON encodes the diagnostic as the statsvet -json object: file,
// line, col, severity, pass, msg, func, instr, var — zero line, col and
// instr and empty func and var omitted.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		File     string `json:"file"`
		Line     int    `json:"line,omitempty"`
		Col      int    `json:"col,omitempty"`
		Severity string `json:"severity"`
		Pass     string `json:"pass"`
		Msg      string `json:"msg"`
		Func     string `json:"func,omitempty"`
		Instr    int    `json:"instr,omitempty"`
		Var      string `json:"var,omitempty"`
	}{d.File, d.Pos.Line, d.Pos.Col, d.Severity.String(), d.Pass, d.Msg, d.Fn, d.Instr, d.Var})
}

// Pass is one analysis over a module. It must not mutate the module and
// must never panic on malformed input — rejecting garbage gracefully is
// the whole point.
type Pass struct {
	// Name keys the pass in diagnostics and CLI filters.
	Name string
	// Doc is the one-line description statsvet -help prints.
	Doc string
	// run executes the pass. decls false leaves out the checks of a metadata
	// row's own declaration that sourceLints also makes (a name declared
	// twice, a tradeoff with one value or a repeated one): for a compiled
	// program the source lints report those on the declaration itself, under
	// its own name, and the row would report the same fault again.
	run func(m *ir.Module, decls bool) []Diagnostic
}

// Run executes the pass over m with every check.
func (p *Pass) Run(m *ir.Module) []Diagnostic { return p.run(m, true) }

// Passes returns the IR passes in execution order.
func Passes() []*Pass {
	return []*Pass{VerifyPass, EffectsPass, FootprintsPass, LintsPass}
}

// Analyze runs every IR pass over m and returns the findings in a
// deterministic order (position, then function, then instruction).
func Analyze(m *ir.Module) []Diagnostic {
	return analyze(nil, m, true)
}

// AnalyzeProgram is the full statsvet front door for one compiled
// program: source lints plus every IR pass, merged and sorted. The source
// lints read the front-end output because the mid-end pins and deletes
// unused tradeoffs — exactly the declarations they exist to flag. A fault
// of a declaration is reported once, by the earliest stage that sees the
// declaration under its own name and position: the source lints, so the IR
// passes skip their checks of the rows it was lowered to (a tradeoff's row is
// often its aux clone, TO_x$aux$f).
func AnalyzeProgram(fo *frontend.Output, m *ir.Module) []Diagnostic {
	return analyze(sourceLints(fo), m, false)
}

// analyze appends the IR passes' findings over m to out and sorts them.
func analyze(out []Diagnostic, m *ir.Module, decls bool) []Diagnostic {
	for _, p := range Passes() {
		out = append(out, p.run(m, decls)...)
	}
	Sort(out)
	return out
}

// Sort orders diagnostics by file, source position, then function,
// instruction, pass and message, so output is stable across
// map-iteration and directory-walk orders.
func Sort(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Instr != b.Instr {
			return a.Instr < b.Instr
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Msg < b.Msg
	})
}

// HasErrors reports whether any finding is Error severity.
func HasErrors(ds []Diagnostic) bool {
	for _, d := range ds {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Check runs every IR pass and returns a non-nil error listing the Error
// findings, one String line each, if any — the form stats.Runtime's
// module verification consumes. Warnings never fail Check.
func Check(m *ir.Module) error {
	var errs []string
	for _, d := range Analyze(m) {
		if d.Severity == Error {
			errs = append(errs, d.String())
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("analysis: module failed verification with %d error(s):\n  %s",
		len(errs), strings.Join(errs, "\n  "))
}

// errAt builds an instruction-anchored Error diagnostic.
func errAt(pass string, f *ir.Function, i int, variable, format string, args ...any) Diagnostic {
	d := Diagnostic{Pass: pass, Severity: Error, Fn: f.Name, Instr: i, Var: variable, Msg: fmt.Sprintf(format, args...)}
	if i >= 0 && i < len(f.Instrs) {
		d.Pos = f.Instrs[i].Pos
	}
	return d
}

// metaDiag builds a metadata-level diagnostic (no instruction anchor).
func metaDiag(pass string, sev Severity, pos ir.Pos, variable, format string, args ...any) Diagnostic {
	return Diagnostic{Pass: pass, Severity: sev, Pos: pos, Instr: -1, Var: variable, Msg: fmt.Sprintf(format, args...)}
}
