package ir

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/tradeoff"
)

// The JSON module format exists for the correctness tooling: the pipeline
// (frontend → midend) only produces well-formed modules, so the statsvet
// corpus needs a way to express deliberately malformed IR — dangling
// callees, operand-arity violations, incongruent clones — that the
// verifier must reject. The format is a direct, stable rendering of the
// Module structure with opcodes spelled as their String() names.

// jsonInstr mirrors Instr with opcode names and omitted zero fields.
type jsonInstr struct {
	Op       string `json:"op"`
	Value    int64  `json:"value,omitempty"`
	Index    int    `json:"index,omitempty"`
	Args     []int  `json:"args,omitempty"`
	Callee   string `json:"callee,omitempty"`
	Tradeoff string `json:"tradeoff,omitempty"`
	Name     string `json:"name,omitempty"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
}

// jsonFunction mirrors Function.
type jsonFunction struct {
	Name   string      `json:"name"`
	Instrs []jsonInstr `json:"instrs"`
}

// jsonTradeoff mirrors TradeoffMeta with the kind spelled out.
type jsonTradeoff struct {
	Name       string   `json:"name"`
	Kind       string   `json:"kind"`
	GetValue   string   `json:"getValue"`
	Size       int64    `json:"size"`
	Default    int64    `json:"default"`
	ValueNames []string `json:"valueNames,omitempty"`
	Aux        bool     `json:"aux,omitempty"`
	ClonedFrom string   `json:"clonedFrom,omitempty"`
	Line       int      `json:"line,omitempty"`
	Col        int      `json:"col,omitempty"`
}

// jsonIndexExpr mirrors IndexExpr.
type jsonIndexExpr struct {
	Whole  bool   `json:"whole,omitempty"`
	Field  string `json:"field,omitempty"`
	Stride int64  `json:"stride,omitempty"`
	Offset int64  `json:"offset,omitempty"`
	Line   int    `json:"line,omitempty"`
	Col    int    `json:"col,omitempty"`
}

func (j jsonIndexExpr) expr() IndexExpr {
	return IndexExpr{
		Whole: j.Whole, Field: j.Field, Stride: j.Stride, Offset: j.Offset,
		Pos: Pos{Line: j.Line, Col: j.Col},
	}
}

// jsonDep mirrors DepMeta.
type jsonDep struct {
	Name           string          `json:"name"`
	Input          string          `json:"input"`
	State          string          `json:"state"`
	Output         string          `json:"output"`
	Compute        string          `json:"compute"`
	AuxCompute     string          `json:"auxCompute,omitempty"`
	Compare        string          `json:"compare,omitempty"`
	ByConstruction bool            `json:"byConstruction,omitempty"`
	Window         int             `json:"window,omitempty"`
	Slots          int             `json:"slots,omitempty"`
	Reserve        []jsonIndexExpr `json:"reserve,omitempty"`
	Line           int             `json:"line,omitempty"`
	Col            int             `json:"col,omitempty"`
}

// jsonModule is the on-disk module document.
type jsonModule struct {
	Functions []jsonFunction `json:"functions"`
	Tradeoffs []jsonTradeoff `json:"tradeoffs,omitempty"`
	Deps      []jsonDep      `json:"deps,omitempty"`
}

// opcodeByName is the inverse of Opcode.String for every defined opcode.
var opcodeByName = func() map[string]Opcode {
	m := make(map[string]Opcode, opcodeCount)
	for o := Opcode(0); int(o) < opcodeCount; o++ {
		m[o.String()] = o
	}
	return m
}()

// DecodeJSON reads a module document from r. Unknown opcodes and tradeoff
// kinds are errors; duplicate function names are errors (the in-memory
// Module cannot represent them). The decoded module is NOT verified —
// feed it to the analysis passes for that.
func DecodeJSON(r io.Reader) (*Module, error) {
	var doc jsonModule
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("ir: decoding module: %w", err)
	}
	m := NewModule()
	for _, jf := range doc.Functions {
		if jf.Name == "" {
			return nil, fmt.Errorf("ir: function with empty name")
		}
		if _, dup := m.Functions[jf.Name]; dup {
			return nil, fmt.Errorf("ir: duplicate function %s", jf.Name)
		}
		f := &Function{Name: jf.Name, Instrs: make([]Instr, len(jf.Instrs))}
		for i, ji := range jf.Instrs {
			op, ok := opcodeByName[strings.ToLower(ji.Op)]
			if !ok {
				return nil, fmt.Errorf("ir: %s instr %d: unknown opcode %q", jf.Name, i, ji.Op)
			}
			f.Instrs[i] = Instr{
				Op: op, Value: ji.Value, Index: ji.Index, Args: ji.Args,
				Callee: ji.Callee, Tradeoff: ji.Tradeoff, Name: ji.Name,
				Pos: Pos{Line: ji.Line, Col: ji.Col},
			}
		}
		m.Functions[f.Name] = f
	}
	for _, jt := range doc.Tradeoffs {
		kind, ok := tradeoff.ParseKind(jt.Kind)
		if !ok {
			return nil, fmt.Errorf("ir: tradeoff %s: unknown kind %q", jt.Name, jt.Kind)
		}
		m.Tradeoffs = append(m.Tradeoffs, TradeoffMeta{
			Name: jt.Name, Kind: kind, GetValue: jt.GetValue,
			Size: jt.Size, Default: jt.Default, ValueNames: jt.ValueNames,
			Aux: jt.Aux, ClonedFrom: jt.ClonedFrom,
			Pos: Pos{Line: jt.Line, Col: jt.Col},
		})
	}
	for _, jd := range doc.Deps {
		d := DepMeta{
			Name: jd.Name, Input: jd.Input, State: jd.State, Output: jd.Output,
			Compute: jd.Compute, AuxCompute: jd.AuxCompute, Compare: jd.Compare, ByConstruction: jd.ByConstruction,
			Window: jd.Window, Slots: jd.Slots, Pos: Pos{Line: jd.Line, Col: jd.Col},
		}
		for _, je := range jd.Reserve {
			d.Reserve = append(d.Reserve, je.expr())
		}
		m.Deps = append(m.Deps, d)
	}
	return m, nil
}
