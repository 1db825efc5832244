package ir

import (
	"encoding/json"
	"io"
	"sort"
)

// EncodeJSON writes m to w as indented JSON with functions in name order,
// so encodings are deterministic artifacts fit for golden files.
func (m *Module) EncodeJSON(w io.Writer) error {
	doc := jsonModule{}
	names := make([]string, 0, len(m.Functions))
	for n := range m.Functions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := m.Functions[n]
		jf := jsonFunction{Name: f.Name, Instrs: make([]jsonInstr, len(f.Instrs))}
		for i, in := range f.Instrs {
			jf.Instrs[i] = jsonInstr{
				Op: in.Op.String(), Value: in.Value, Index: in.Index,
				Args: in.Args, Callee: in.Callee, Tradeoff: in.Tradeoff,
				Name: in.Name, Line: in.Pos.Line, Col: in.Pos.Col,
			}
		}
		doc.Functions = append(doc.Functions, jf)
	}
	for _, t := range m.Tradeoffs {
		doc.Tradeoffs = append(doc.Tradeoffs, jsonTradeoff{
			Name: t.Name, Kind: t.Kind.String(), GetValue: t.GetValue,
			Size: t.Size, Default: t.Default, ValueNames: t.ValueNames,
			Aux: t.Aux, ClonedFrom: t.ClonedFrom, Line: t.Pos.Line, Col: t.Pos.Col,
		})
	}
	for _, d := range m.Deps {
		jd := jsonDep{
			Name: d.Name, Input: d.Input, State: d.State, Output: d.Output,
			Compute: d.Compute, AuxCompute: d.AuxCompute, Compare: d.Compare, ByConstruction: d.ByConstruction,
			Window: d.Window, Slots: d.Slots, Line: d.Pos.Line, Col: d.Pos.Col,
		}
		for _, e := range d.Reserve {
			jd.Reserve = append(jd.Reserve, toJSONIndexExpr(e))
		}
		doc.Deps = append(doc.Deps, jd)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func toJSONIndexExpr(e IndexExpr) jsonIndexExpr {
	return jsonIndexExpr{
		Whole: e.Whole, Field: e.Field, Stride: e.Stride, Offset: e.Offset,
		Line: e.Pos.Line, Col: e.Pos.Col,
	}
}
