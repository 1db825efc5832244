// Package frontend is the STATS front-end compiler (§3.4, "Generating
// standard C++ code"): it translates source written with the SDI and TI
// extensions into standard source plus a generated header describing the
// tradeoffs (Figure 11). Like the paper's Racket front-end, it only
// *partially* parses the input: everything outside `tradeoff { ... }` and
// `statedep { ... }` blocks is opaque host code and passes through
// untouched, which is what makes the front-end small and keeps the host
// language a moving target someone else's problem.
//
// The extension syntax accepted:
//
//	tradeoff TO_numAnnealingLayers {
//	    kind constant;        // constant | type | function
//	    values 1..10;         // constant ranges, or: values a, b, c;
//	    default 4;            // index, not value
//	}
//
//	statedep track {
//	    input Frame;
//	    state BodyModel;
//	    output Positions;
//	    compute updateModel uses TO_numAnnealingLayers, TO_particles;
//	    compare compareModels;   // validates a speculative state; or
//	                             //   `accept construction;`: every one
//	                             //   is a state the original producer
//	                             //   could have made (§4.2), so none is
//	                             //   compared. Both is refused; neither
//	                             //   is a srclint warning
//	    window 2;                // optional: aux may read 2 recent inputs
//	    slots 6;                 // optional: state decomposes into 6 slots
//	    reserve inst;            // declared footprint entry (repeatable):
//	                             //   an affine index over one input field
//	                             //   (c, f, a*f, f+b, a*f+b) or `*` for
//	                             //   the whole state
//	    touches inst;            // indexed state access the compute
//	                             //   performs (repeatable; lowered to
//	                             //   StateReadIdx/StateWriteIdx so the
//	                             //   footprint analysis can check reserve
//	                             //   against it)
//	}
//
// The parser writes each declaration down once, as the IR's own metadata
// row: a TradeoffDecl is an ir.TradeoffMeta and a DepDecl an ir.DepMeta,
// with positions, kinds and reserve entries already in the IR's types, plus
// the few fields only the front-end reads (a constant range and placeholder
// id for the header, a dependence's uses and touches for the middle-end's
// lowering). The middle-end appends these rows and fills in only what it
// decides itself. Every declared name — tradeoff, statedep, compute,
// compare — must be an identifier, since it is spliced into generated
// identifiers; the host types and value names stay opaque.
package frontend

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/tradeoff"
)

// TradeoffDecl is a parsed tradeoff block: the IR's metadata row, complete
// but for GetValue (the middle-end synthesizes that function), plus the
// fields only the header generation reads.
type TradeoffDecl struct {
	ir.TradeoffMeta
	Lo, Hi int64 // constant ranges
	// ID is the placeholder id assigned by the front-end (the 42 in
	// T_42); ids are assigned in declaration order starting at 42.
	ID int
}

// DepDecl is a parsed statedep block: the IR's metadata row, complete but
// for AuxCompute (the middle-end's clone), plus the declarations the
// middle-end lowers into the compute function's body.
type DepDecl struct {
	ir.DepMeta
	// Uses names the tradeoffs the compute references.
	Uses []string
	// Touches holds the declared indexed state accesses (`touches e;`) the
	// middle-end lowers to indexed IR accesses.
	Touches []ir.IndexExpr
}

// Output is the front-end's result.
type Output struct {
	// StandardSource is the input with extension blocks lowered to
	// generated standard code.
	StandardSource string
	// Header is the generated tradeoff header (Figure 11), #included by
	// every source file.
	Header    string
	Tradeoffs []TradeoffDecl
	Deps      []DepDecl
	// GeneratedLOC counts the lines the front-end generated (one input
	// to Table 1's "LOC generated by compilers").
	GeneratedLOC int
}

// Error is a positioned front-end diagnostic.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("frontend: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Translate lowers extended source to standard source plus metadata.
func Translate(src string) (*Output, error) {
	lines := strings.Split(src, "\n")
	out := &Output{}
	var body strings.Builder
	nextID := 42
	generated := 1 // the #include line

	i := 0
	for i < len(lines) {
		trimmed := strings.TrimSpace(lines[i])
		switch {
		case strings.HasPrefix(trimmed, "tradeoff "):
			decl, end, err := parseTradeoff(lines, i)
			if err != nil {
				return nil, err
			}
			decl.ID = nextID
			nextID++
			out.Tradeoffs = append(out.Tradeoffs, decl)
			body.WriteString(fmt.Sprintf("#define %s T_%d(%d)\n", decl.Name, decl.ID, decl.ID))
			generated++
			i = end + 1
		case strings.HasPrefix(trimmed, "statedep "):
			decl, end, err := parseDep(lines, i)
			if err != nil {
				return nil, err
			}
			out.Deps = append(out.Deps, decl)
			lowered := lowerDep(decl)
			body.WriteString(lowered)
			generated += strings.Count(lowered, "\n")
			i = end + 1
		default:
			body.WriteString(lines[i])
			body.WriteByte('\n')
			i++
		}
	}

	// Validate that every `uses` names a declared tradeoff.
	declared := map[string]bool{}
	for _, t := range out.Tradeoffs {
		declared[t.Name] = true
	}
	for _, d := range out.Deps {
		for _, u := range d.Uses {
			if !declared[u] {
				return nil, errf(d.Pos.Line, "statedep %s uses undeclared tradeoff %s", d.Name, u)
			}
		}
	}

	out.Header = buildHeader(out.Tradeoffs)
	out.StandardSource = "#include \"stats_tradeoffs.h\"\n" + body.String()
	out.GeneratedLOC = generated + strings.Count(out.Header, "\n")
	return out, nil
}

// keywordPos returns the position of the declaration heading line i: its
// 1-based line and the column at which its keyword starts (the first
// non-blank character).
func keywordPos(lines []string, i int) ir.Pos {
	return ir.Pos{Line: i + 1, Col: len(lines[i]) - len(strings.TrimLeft(lines[i], " \t")) + 1}
}

// nameErr refuses a declared name that is not an identifier: tradeoff,
// statedep, compute and compare names are spliced into generated
// identifiers (the #define, the StateDependence variable and its inputs_
// and state_ companions, the IR's function names).
func nameErr(line int, what, name string) error {
	if name == "" {
		return errf(line, "%s needs a name", what)
	}
	if !isIdent(name) {
		return errf(line, "%s name %q is not an identifier", what, name)
	}
	return nil
}

// collectBlock returns the trimmed statements of a `{ ... }` block starting
// at line start, and the index of the closing-brace line.
func collectBlock(lines []string, start int) ([]string, []int, int, error) {
	if !strings.HasSuffix(strings.TrimSpace(lines[start]), "{") {
		return nil, nil, 0, errf(start+1, "expected '{' to open block")
	}
	var stmts []string
	var at []int
	for i := start + 1; i < len(lines); i++ {
		t := strings.TrimSpace(lines[i])
		if t == "}" {
			return stmts, at, i, nil
		}
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		if !strings.HasSuffix(t, ";") {
			return nil, nil, 0, errf(i+1, "statement must end with ';': %q", t)
		}
		stmts = append(stmts, strings.TrimSuffix(t, ";"))
		at = append(at, i+1)
	}
	return nil, nil, 0, errf(start+1, "unterminated block")
}

func parseTradeoff(lines []string, start int) (TradeoffDecl, int, error) {
	head := strings.TrimSpace(lines[start])
	name := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(head, "tradeoff "), "{"))
	if err := nameErr(start+1, "tradeoff", name); err != nil {
		return TradeoffDecl{}, 0, err
	}
	decl := TradeoffDecl{TradeoffMeta: ir.TradeoffMeta{Name: name, Default: -1, Pos: keywordPos(lines, start)}}
	hasKind := false
	stmts, at, end, err := collectBlock(lines, start)
	if err != nil {
		return TradeoffDecl{}, 0, err
	}
	for si, s := range stmts {
		field, rest, ok := strings.Cut(s, " ")
		if !ok {
			return TradeoffDecl{}, 0, errf(at[si], "malformed statement %q", s)
		}
		rest = strings.TrimSpace(rest)
		switch field {
		case "kind":
			if decl.Kind, hasKind = tradeoff.ParseKind(rest); !hasKind {
				return TradeoffDecl{}, 0, errf(at[si], "unknown kind %q", rest)
			}
		case "values":
			// A repeated values statement replaces the earlier one
			// entirely, so a range never coexists with value names.
			decl.Lo, decl.Hi, decl.ValueNames = 0, 0, nil
			if lo, hi, ok := strings.Cut(rest, ".."); ok {
				l, err1 := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
				h, err2 := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
				if err1 != nil || err2 != nil || h < l {
					return TradeoffDecl{}, 0, errf(at[si], "bad range %q", rest)
				}
				decl.Lo, decl.Hi = l, h
			} else {
				for _, n := range strings.Split(rest, ",") {
					n = strings.TrimSpace(n)
					if n == "" {
						return TradeoffDecl{}, 0, errf(at[si], "empty value name")
					}
					decl.ValueNames = append(decl.ValueNames, n)
				}
			}
		case "default":
			d, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return TradeoffDecl{}, 0, errf(at[si], "bad default %q", rest)
			}
			decl.Default = d
		default:
			return TradeoffDecl{}, 0, errf(at[si], "unknown tradeoff field %q", field)
		}
	}
	line := decl.Pos.Line
	switch {
	case !hasKind:
		return TradeoffDecl{}, 0, errf(line, "tradeoff %s: missing kind", name)
	case decl.Kind == tradeoff.Constant && decl.ValueNames != nil:
		return TradeoffDecl{}, 0, errf(line, "tradeoff %s: constant tradeoffs take a range", name)
	case decl.Kind != tradeoff.Constant && decl.ValueNames == nil:
		return TradeoffDecl{}, 0, errf(line, "tradeoff %s: %s tradeoffs take value names", name, decl.Kind)
	case decl.Kind == tradeoff.Constant:
		decl.Size = decl.Hi - decl.Lo + 1
	default:
		decl.Size = int64(len(decl.ValueNames))
	}
	if decl.Size <= 0 {
		return TradeoffDecl{}, 0, errf(line, "tradeoff %s: no values", name)
	}
	if decl.Default < 0 || decl.Default >= decl.Size {
		return TradeoffDecl{}, 0, errf(line, "tradeoff %s: default index %d out of [0,%d)", name, decl.Default, decl.Size)
	}
	return decl, end, nil
}

func parseDep(lines []string, start int) (DepDecl, int, error) {
	head := strings.TrimSpace(lines[start])
	name := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(head, "statedep "), "{"))
	if err := nameErr(start+1, "statedep", name); err != nil {
		return DepDecl{}, 0, err
	}
	decl := DepDecl{DepMeta: ir.DepMeta{Name: name, Pos: keywordPos(lines, start)}}
	stmts, at, end, err := collectBlock(lines, start)
	if err != nil {
		return DepDecl{}, 0, err
	}
	for si, s := range stmts {
		field, rest, ok := strings.Cut(s, " ")
		if !ok {
			return DepDecl{}, 0, errf(at[si], "malformed statement %q", s)
		}
		rest = strings.TrimSpace(rest)
		// A reserve/touches entry keeps the statedep keyword's column.
		epos := ir.Pos{Line: at[si], Col: decl.Pos.Col}
		switch field {
		case "input":
			decl.Input = rest
		case "state":
			decl.State = rest
		case "output":
			decl.Output = rest
		case "compare":
			decl.Compare = rest
			if err := nameErr(at[si], "compare", rest); err != nil {
				return DepDecl{}, 0, err
			}
		case "accept":
			if rest != "construction" {
				return DepDecl{}, 0, errf(at[si], "bad accept %q (want construction)", rest)
			}
			decl.ByConstruction = true
		case "window":
			w, err := strconv.Atoi(rest)
			if err != nil || w < 1 {
				return DepDecl{}, 0, errf(at[si], "bad window %q (want a positive input count)", rest)
			}
			decl.Window = w
		case "slots":
			n, err := strconv.Atoi(rest)
			if err != nil || n < 1 {
				return DepDecl{}, 0, errf(at[si], "bad slots %q (want a positive slot count)", rest)
			}
			decl.Slots = n
		case "reserve":
			e, err := parseIndexExpr(rest, epos)
			if err != nil {
				return DepDecl{}, 0, err
			}
			decl.Reserve = append(decl.Reserve, e)
		case "touches":
			e, err := parseIndexExpr(rest, epos)
			if err != nil {
				return DepDecl{}, 0, err
			}
			decl.Touches = append(decl.Touches, e)
		case "compute":
			fn, uses, hasUses := strings.Cut(rest, " uses ")
			decl.Compute = strings.TrimSpace(fn)
			if err := nameErr(at[si], "compute", decl.Compute); err != nil {
				return DepDecl{}, 0, err
			}
			if hasUses {
				for _, u := range strings.Split(uses, ",") {
					u = strings.TrimSpace(u)
					if u == "" {
						return DepDecl{}, 0, errf(at[si], "empty tradeoff in uses")
					}
					decl.Uses = append(decl.Uses, u)
				}
			}
		default:
			return DepDecl{}, 0, errf(at[si], "unknown statedep field %q", field)
		}
	}
	line := decl.Pos.Line
	for _, req := range []struct{ f, v string }{
		{"input", decl.Input}, {"state", decl.State}, {"output", decl.Output}, {"compute", decl.Compute},
	} {
		if req.v == "" {
			return DepDecl{}, 0, errf(line, "statedep %s: missing %s", name, req.f)
		}
	}
	if decl.Compare != "" && decl.ByConstruction {
		return DepDecl{}, 0, errf(line, "statedep %s: declares both a compare method and acceptance by construction", name)
	}
	if decl.Slots == 0 && (len(decl.Reserve) > 0 || len(decl.Touches) > 0) {
		return DepDecl{}, 0, errf(line, "statedep %s: reserve/touches need a slots declaration", name)
	}
	if decl.Slots > 0 && len(decl.Reserve) == 0 {
		return DepDecl{}, 0, errf(line, "statedep %s: slots declared without a reserve footprint", name)
	}
	return decl, end, nil
}

// isIdent reports whether s is a plain identifier (an input field name).
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseIndexExpr parses one reserve/touches entry at pos: `*` (whole
// state), a non-negative constant, or an affine form over one input field —
// `f`, `a*f`, `f+b`, `a*f+b` with positive stride a and non-negative
// offset b. The normal forms are canonical: re-rendering an accepted
// entry (ir.IndexExpr.String) round-trips to the same declaration.
func parseIndexExpr(s string, pos ir.Pos) (ir.IndexExpr, error) {
	s = strings.TrimSpace(s)
	if s == "*" {
		return ir.IndexExpr{Whole: true, Pos: pos}, nil
	}
	e := ir.IndexExpr{Stride: 1, Pos: pos}
	body := s
	if head, off, hasOff := strings.Cut(s, "+"); hasOff {
		b, err := strconv.ParseInt(strings.TrimSpace(off), 10, 64)
		if err != nil || b < 0 {
			return ir.IndexExpr{}, errf(pos.Line, "bad index offset in %q (want a non-negative constant)", s)
		}
		e.Offset = b
		body = strings.TrimSpace(head)
	}
	if factor, field, hasMul := strings.Cut(body, "*"); hasMul {
		a, err := strconv.ParseInt(strings.TrimSpace(factor), 10, 64)
		if err != nil || a < 1 {
			return ir.IndexExpr{}, errf(pos.Line, "bad index stride in %q (want a positive constant)", s)
		}
		e.Stride = a
		body = strings.TrimSpace(field)
		if !isIdent(body) {
			return ir.IndexExpr{}, errf(pos.Line, "bad index field in %q (want an input field name)", s)
		}
		e.Field = body
		return e, nil
	}
	if isIdent(body) {
		e.Field = body
		return e, nil
	}
	c, err := strconv.ParseInt(body, 10, 64)
	if err != nil || c < 0 || e.Offset != 0 {
		return ir.IndexExpr{}, errf(pos.Line, "bad index expression %q (want *, a constant, or stride*field+offset)", s)
	}
	return ir.IndexExpr{Offset: c, Pos: pos}, nil
}

// lowerDep emits the standard-C++ SDI instantiation (Figure 8's tail).
func lowerDep(d DepDecl) string {
	var b strings.Builder
	fmt.Fprintf(&b, "StateDependence<%s, %s, %s> %s(&inputs_%s, &state_%s, %s);\n",
		d.Input, d.State, d.Output, d.Name, d.Name, d.Name, d.Compute)
	fmt.Fprintf(&b, "%s.start(); %s.join();\n", d.Name, d.Name)
	return b.String()
}

// buildHeader emits the Figure 11 header: placeholder functions, the TO[]
// table, and the per-tradeoff accessor functions.
func buildHeader(ts []TradeoffDecl) string {
	var b strings.Builder
	b.WriteString("#pragma once\n")
	for _, t := range ts {
		fmt.Fprintf(&b, "int64_t T_%d(int64_t p) { return p; }\n", t.ID)
	}
	b.WriteString("char *TO[] = {")
	for i, t := range ts {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "\"T_%d_getValue T_%d_size T_%d_getDefaultIndex T_%d\"", t.ID, t.ID, t.ID, t.ID)
	}
	b.WriteString("};\n")
	for _, t := range ts {
		if t.Kind == tradeoff.Constant {
			fmt.Fprintf(&b, "auto T_%d_getValue(int64_t i) { return i + %d; }\n", t.ID, t.Lo)
		} else {
			fmt.Fprintf(&b, "auto T_%d_getValue(int64_t i) { return i; }\n", t.ID)
		}
		fmt.Fprintf(&b, "int64_t T_%d_size() { return %d; }\n", t.ID, t.Size)
		fmt.Fprintf(&b, "int64_t T_%d_getDefaultIndex() { return %d; }\n", t.ID, t.Default)
	}
	return b.String()
}
