package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
)

// TestFootprintsSlotMapMatchesWorkloads ties the static inference to the
// Go formulations: each workload declaration's inferred slot map must match
// the slot shape its workload's ReserveOps actually uses (swaptions: 6
// per-instrument slots; streamcluster, fluidanimate, streamclassifier: 4
// shard/fluid/member slots), and every dependence without slots (bodytrack,
// facedet, and the aux chains of streamcluster and streamclassifier) must
// widen to ⊤.
func TestFootprintsSlotMapMatchesWorkloads(t *testing.T) {
	type dep struct {
		name    string
		slots   int
		precise bool
		expr    string
	}
	whole := func(name string) dep { return dep{name, 0, false, "*"} }
	want := map[string][]dep{
		"swaptions.stats":        {{"price", 6, true, "Inst"}},
		"streamcluster.stats":    {whole("cluster"), {"shards", 4, true, "Shard"}},
		"fluidanimate.stats":     {{"simulate", 4, true, "Fluid"}},
		"streamclassifier.stats": {whole("classify"), {"ensemble", 4, true, "Member"}},
		"bodytrack.stats":        {whole("track")},
		"facedet.stats":          {whole("detect")},
	}
	paths := globAll(t, workloadDecls, "*/*.stats")
	var out, errb bytes.Buffer
	if code := runFootprints(paths, true, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var maps []slotMap
	if err := json.Unmarshal(out.Bytes(), &maps); err != nil {
		t.Fatalf("decoding slot map: %v", err)
	}
	if len(maps) != len(want) {
		t.Fatalf("got %d files, want %d", len(maps), len(want))
	}
	for _, m := range maps {
		ws, ok := want[filepath.Base(m.File)]
		if !ok {
			t.Errorf("%s: unexpected file in slot map", m.File)
			continue
		}
		if len(m.Deps) != len(ws) {
			t.Errorf("%s: %d deps, want %d", m.File, len(m.Deps), len(ws))
			continue
		}
		for i, d := range m.Deps {
			w := ws[i]
			if d.Dep != w.name || d.Slots != w.slots || d.Precise != w.precise {
				t.Errorf("%s: dep %s slots=%d precise=%v, want dep %s slots=%d precise=%v",
					m.File, d.Dep, d.Slots, d.Precise, w.name, w.slots, w.precise)
			}
			if len(d.Inferred) != 1 || d.Inferred[0] != w.expr {
				t.Errorf("%s: %s inferred %v, want [%s]", m.File, d.Dep, d.Inferred, w.expr)
			}
			if w.precise {
				if len(d.Declared) != 1 || d.Declared[0] != w.expr {
					t.Errorf("%s: %s declared %v, want [%s]", m.File, d.Dep, d.Declared, w.expr)
				}
			}
		}
	}
}

// TestFootprintsRejectsGoInput locks the usage error: Go sources have no
// IR to infer over.
func TestFootprintsRejectsGoInput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runFootprints([]string{"testdata/corpus/broken/dropped_stats.go"}, false, &out, &errb); code != 2 {
		t.Fatalf("exit %d on a .go input, want 2; stderr: %s", code, errb.String())
	}
}
