package analysis

import (
	"sort"

	"repro/internal/ir"
)

// FootprintsPass extends the effect dataflow from state-variable to slot
// granularity: for each dependence it infers, per indexed state access in
// the compute function's reachable call graph, an affine index expression
// over the current input (a constant, an input field, or stride*field+
// offset), widening to ⊤ (whole state) only when the index is genuinely
// dynamic. The pass then proves any declared reservation footprint
// (DepMeta.Reserve, the slots WithReserve claims an input touches) is a
// sound over-approximation of the inferred one: an access the declared
// footprint does not cover is an Error — exactly the bug that silently
// breaks the reservations protocol's byte-identical-to-sequential
// guarantee — while a whole-state declaration over fully precise inferred
// accesses is a Warning for lost parallelism.
var FootprintsPass = &Pass{
	Name: "footprints",
	Doc:  "slot-level footprint inference; declared reservations must over-approximate inferred accesses",
	run:  func(m *ir.Module, _ bool) []Diagnostic { return runFootprints(m) },
}

// Access is one inferred slot-level state access: the abstract index
// expression (Whole when the index is dynamic or the access is a plain
// whole-state read/write) and the site performing it.
type Access struct {
	Expr  ir.IndexExpr
	Write bool
	Site  Site
}

// Footprint is the inferred slot-level footprint of one dependence, the
// entry statsvet -footprints prints. Nothing reads that export back: the
// table in cmd/statsvet's TestFootprintsSlotMapMatchesWorkloads is what
// ties the workload declarations' inferences to the slot shapes the Go
// workloads reserve (and each workload's TestDeclarationStatesProgram ties
// the declared reserve entries to its ReserveOps).
type Footprint struct {
	Dep     string
	State   string
	Slots   int            // declared slot count (0 = unslotted)
	Reserve []ir.IndexExpr // declared footprint (empty = whole-state fallback)
	Reads   []Access
	Writes  []Access
}

// Precise reports whether every inferred access is a precise slot
// expression (no ⊤-widening): statsvet -footprints prints such a map as
// "precise", and TestFootprintsSlotMapMatchesWorkloads compares it slot
// by slot with the workload's ReserveOps; a widened one stands for the
// whole state.
func (fp *Footprint) Precise() bool {
	for _, a := range fp.Reads {
		if a.Expr.Whole {
			return false
		}
	}
	for _, a := range fp.Writes {
		if a.Expr.Whole {
			return false
		}
	}
	return true
}

// Exprs returns the deduplicated inferred index expressions (reads and
// writes merged), in deterministic order.
func (fp *Footprint) Exprs() []ir.IndexExpr {
	var out []ir.IndexExpr
	add := func(e ir.IndexExpr) {
		for _, have := range out {
			if have.Same(e) {
				return
			}
		}
		out = append(out, e)
	}
	for _, a := range fp.Reads {
		add(a.Expr)
	}
	for _, a := range fp.Writes {
		add(a.Expr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// absIdx is the abstract value of one instruction in the index domain:
// ⊥ is not needed (every instruction has a value), ⊤ is "genuinely
// dynamic", and everything else is the affine form stride*field+offset
// (field=="" means the constant offset).
type absIdx struct {
	top    bool
	field  string
	stride int64
	offset int64
}

var absTop = absIdx{top: true}

func (a absIdx) expr(pos ir.Pos) ir.IndexExpr {
	return ir.IndexExpr{Whole: a.top, Field: a.field, Stride: a.stride, Offset: a.offset, Pos: pos}
}

// absEval abstractly evaluates every instruction of f bottom-up. Operands
// that are not defined before use (malformed IR the verifier reports)
// evaluate to ⊤ rather than faulting.
func absEval(f *ir.Function) []absIdx {
	vals := make([]absIdx, len(f.Instrs))
	get := func(i, a int) absIdx {
		if a < 0 || a >= i {
			return absTop
		}
		return vals[a]
	}
	for i, in := range f.Instrs {
		switch in.Op {
		case ir.Const:
			vals[i] = absIdx{offset: in.Value}
		case ir.InputField:
			vals[i] = absIdx{field: in.Name, stride: 1}
		case ir.Add:
			if len(in.Args) != 2 {
				vals[i] = absTop
				break
			}
			vals[i] = absAdd(get(i, in.Args[0]), get(i, in.Args[1]))
		case ir.Mul:
			if len(in.Args) != 2 {
				vals[i] = absTop
				break
			}
			vals[i] = absMul(get(i, in.Args[0]), get(i, in.Args[1]))
		default:
			vals[i] = absTop
		}
	}
	return vals
}

// absAdd folds addition: const+const stays const, const+affine shifts the
// offset, affine+affine (two different dynamic terms) widens to ⊤.
func absAdd(a, b absIdx) absIdx {
	switch {
	case a.top || b.top:
		return absTop
	case a.field == "":
		if b.field == "" {
			return absIdx{offset: a.offset + b.offset}
		}
		return absIdx{field: b.field, stride: b.stride, offset: b.offset + a.offset}
	case b.field == "":
		return absIdx{field: a.field, stride: a.stride, offset: a.offset + b.offset}
	default:
		return absTop
	}
}

// absMul folds multiplication: const*const stays const, const*affine
// scales stride and offset, affine*affine widens to ⊤.
func absMul(a, b absIdx) absIdx {
	switch {
	case a.top || b.top:
		return absTop
	case a.field == "" && b.field == "":
		return absIdx{offset: a.offset * b.offset}
	case a.field == "":
		return absIdx{field: b.field, stride: b.stride * a.offset, offset: b.offset * a.offset}
	case b.field == "":
		return absIdx{field: a.field, stride: a.stride * b.offset, offset: a.offset * b.offset}
	default:
		return absTop
	}
}

// slotAccess is one entry of a function's transitive slot-access summary.
type slotAccess struct {
	state string
	expr  ir.IndexExpr
	write bool
	site  Site
}

func (a slotAccess) key() string {
	k := a.state + "|" + a.expr.String()
	if a.write {
		return k + "|w"
	}
	return k + "|r"
}

// slotSummaries computes, for every function, the transitive set of
// slot-level state accesses: direct StateRead/StateWrite (⊤ access) and
// StateReadIdx/StateWriteIdx (abstractly evaluated index) plus everything
// reachable through Call edges, iterated to a fixpoint over sorted
// function names so summaries are deterministic.
func slotSummaries(m *ir.Module) map[string][]slotAccess {
	sums := map[string][]slotAccess{}
	have := map[string]map[string]bool{}
	names := make([]string, 0, len(m.Functions))
	for name := range m.Functions {
		names = append(names, name)
	}
	sort.Strings(names)

	add := func(name string, a slotAccess) bool {
		if have[name] == nil {
			have[name] = map[string]bool{}
		}
		if have[name][a.key()] {
			return false
		}
		have[name][a.key()] = true
		sums[name] = append(sums[name], a)
		return true
	}

	for _, name := range names {
		f := m.Functions[name]
		if f == nil {
			continue
		}
		vals := absEval(f)
		for i, in := range f.Instrs {
			site := Site{Fn: name, Instr: i, Pos: in.Pos}
			switch in.Op {
			case ir.StateRead, ir.StateWrite:
				add(name, slotAccess{
					state: in.Name, expr: ir.IndexExpr{Whole: true, Pos: in.Pos},
					write: in.Op == ir.StateWrite, site: site,
				})
			case ir.StateReadIdx, ir.StateWriteIdx:
				v := absTop
				if len(in.Args) == 1 {
					v = vals[in.Args[0]]
				}
				add(name, slotAccess{
					state: in.Name, expr: v.expr(in.Pos),
					write: in.Op == ir.StateWriteIdx, site: site,
				})
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for _, name := range names {
			f := m.Functions[name]
			if f == nil {
				continue
			}
			for _, callee := range f.Callees() {
				for _, a := range sums[callee] {
					if add(name, a) {
						changed = true
					}
				}
			}
		}
	}
	return sums
}

// InferFootprints computes the slot-level footprint of every dependence's
// compute function (accesses to foreign state are the effects pass's
// problem and excluded here), sorted by dependence name.
func InferFootprints(m *ir.Module) []Footprint {
	sums := slotSummaries(m)
	var out []Footprint
	for _, d := range m.Deps {
		fp := Footprint{Dep: d.Name, State: d.State, Slots: d.Slots, Reserve: d.Reserve}
		for _, a := range sums[d.Compute] {
			if a.state != d.State {
				continue
			}
			acc := Access{Expr: a.expr, Write: a.write, Site: a.site}
			if a.write {
				fp.Writes = append(fp.Writes, acc)
			} else {
				fp.Reads = append(fp.Reads, acc)
			}
		}
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dep < out[j].Dep })
	return out
}

// covered reports whether declared (a reservation footprint) soundly
// covers the inferred access expression: a Whole declaration covers
// everything; a ⊤ access is covered only by a Whole declaration;
// otherwise coverage is syntactic slot-set equality with some entry.
func covered(declared []ir.IndexExpr, e ir.IndexExpr) bool {
	for _, r := range declared {
		if r.Whole {
			return true
		}
		if !e.Whole && r.Same(e) {
			return true
		}
	}
	return false
}

func runFootprints(m *ir.Module) []Diagnostic {
	var ds []Diagnostic
	for _, fp := range InferFootprints(m) {
		dep, state, slots := fp.Dep, fp.State, fp.Slots

		// Declared-footprint integrity: range and shape of each entry.
		declaredWhole := false
		for _, r := range fp.Reserve {
			switch {
			case r.Whole:
				declaredWhole = true
			case r.Field == "":
				if r.Offset < 0 || (slots > 0 && r.Offset >= int64(slots)) {
					ds = append(ds, metaDiag("footprints", Error, r.Pos, dep,
						"dependence %s reserves constant slot %d, outside [0,%d)", dep, r.Offset, slots))
				}
			case r.Stride < 1:
				ds = append(ds, metaDiag("footprints", Error, r.Pos, dep,
					"dependence %s reserve entry %s has non-positive stride %d", dep, r, r.Stride))
			}
		}

		if len(fp.Reserve) == 0 {
			continue // whole-state fallback: trivially sound, nothing declared to check
		}

		// Soundness: every inferred access must be covered.
		all := append(append([]Access{}, fp.Reads...), fp.Writes...)
		used := make([]bool, len(fp.Reserve))
		allPrecise := len(all) > 0
		for _, a := range all {
			kind := "reads"
			if a.Write {
				kind = "writes"
			}
			if a.Expr.Whole {
				allPrecise = false
			} else if a.Expr.Field == "" && (a.Expr.Offset < 0 || (slots > 0 && a.Expr.Offset >= int64(slots))) {
				ds = append(ds, Diagnostic{
					Pass: "footprints", Severity: Error, Pos: a.Site.Pos,
					Fn: a.Site.Fn, Instr: a.Site.Instr, Var: dep,
					Msg: "dependence " + dep + " compute " + kind + " constant slot " +
						a.Expr.String() + " of " + state + ", outside the declared slot range",
				})
			}
			if !covered(fp.Reserve, a.Expr) {
				ds = append(ds, Diagnostic{
					Pass: "footprints", Severity: Error, Pos: a.Site.Pos,
					Fn: a.Site.Fn, Instr: a.Site.Instr, Var: dep,
					Msg: "dependence " + dep + " " + kind + " slot " + a.Expr.String() + " of " + state +
						", which its declared reservation footprint under-approximates" +
						" — the reservations protocol would commit conflicting inputs",
				})
			}
			for i, r := range fp.Reserve {
				if r.Whole || (!a.Expr.Whole && r.Same(a.Expr)) {
					used[i] = true
				}
			}
		}

		// Over-approximation lints: lost parallelism, never unsoundness.
		if declaredWhole && allPrecise {
			ds = append(ds, metaDiag("footprints", Warning, fp.Reserve[0].Pos, dep,
				"dependence %s reserves the whole state but every inferred access is a precise slot — whole-state reservation serializes commits (lost parallelism)", dep))
		}
		for i, r := range fp.Reserve {
			if !used[i] && !r.Whole {
				ds = append(ds, metaDiag("footprints", Warning, r.Pos, dep,
					"dependence %s reserve entry %s matches no inferred access (over-approximation costs parallelism)", dep, r))
			}
		}
	}
	return ds
}
