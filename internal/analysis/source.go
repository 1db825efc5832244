package analysis

import "repro/internal/frontend"

// sourceLints checks the front-end declarations before the mid-end runs.
// This ordering matters: the mid-end pins every tradeoff that auxiliary
// code cannot reach to its default and deletes its metadata row, so a
// declared-but-unused tradeoff is invisible in the final module — the
// source lints are the only place it can be reported.
func sourceLints(fo *frontend.Output) []Diagnostic {
	var ds []Diagnostic

	used := map[string]bool{}
	for _, d := range fo.Deps {
		for _, u := range d.Uses {
			used[u] = true
		}
	}

	seenT := map[string]frontend.TradeoffDecl{}
	for _, t := range fo.Tradeoffs {
		if prev, dup := seenT[t.Name]; dup {
			ds = append(ds, metaDiag("srclint", Error, t.Pos, t.Name,
				"tradeoff %s already declared at line %d", t.Name, prev.Pos.Line))
		}
		seenT[t.Name] = t
		if !used[t.Name] {
			ds = append(ds, metaDiag("srclint", Warning, t.Pos, t.Name,
				"tradeoff %s is not used by any statedep; the mid-end will pin it to its default and delete it", t.Name))
		}
		if t.Size == 1 {
			ds = append(ds, metaDiag("srclint", Warning, t.Pos, t.Name,
				"tradeoff %s declares a single value; the knob can never vary", t.Name))
		}
		seenV := map[string]bool{}
		for _, v := range t.ValueNames {
			if seenV[v] {
				ds = append(ds, metaDiag("srclint", Warning, t.Pos, t.Name,
					"tradeoff %s lists value %s more than once", t.Name, v))
			}
			seenV[v] = true
		}
	}

	seenD := map[string]frontend.DepDecl{}
	for _, d := range fo.Deps {
		if prev, dup := seenD[d.Name]; dup {
			ds = append(ds, metaDiag("srclint", Error, d.Pos, d.Name,
				"statedep %s already declared at line %d", d.Name, prev.Pos.Line))
		}
		seenD[d.Name] = d
		if len(d.Uses) > 0 && d.Compare == "" && !d.ByConstruction {
			ds = append(ds, metaDiag("srclint", Warning, d.Pos, d.Name,
				"statedep %s uses tradeoffs but declares no compare method; speculation cannot be validated at runtime", d.Name))
		}
		seenU := map[string]bool{}
		for _, u := range d.Uses {
			if seenU[u] {
				ds = append(ds, metaDiag("srclint", Warning, d.Pos, d.Name,
					"statedep %s lists tradeoff %s more than once in uses", d.Name, u))
			}
			seenU[u] = true
		}
	}
	return ds
}
