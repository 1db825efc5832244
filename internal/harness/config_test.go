package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/frontend"
	"repro/internal/midend"
	"repro/internal/profiler"
	"repro/internal/rng"
	"repro/internal/workload/registry"
)

// TestOneConfigurationBothPaths checks that a point of the state space means
// the same engine options on statsc's path (the module Table 1 lowers from
// the workload's declaration, compiled by backend.Compile) and on the
// tuner's (profiler.BuildSpace, decoded by profiler.Decode). For a program with one dependence the
// module's space is the tuner's without the thread split, dimension for
// dimension; with more, the middle-end clones every tradeoff and the module
// holds a block per dependence, while the tuner shares one.
func TestOneConfigurationBothPaths(t *testing.T) {
	oneDep := 0
	for _, w := range registry.Targets() {
		d := w.Desc()
		fo, err := frontend.Translate(d.Declaration)
		if err != nil {
			t.Fatal(err)
		}
		m, err := midend.Lower(fo)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := profiler.ModuleSpace(m)
		if err != nil {
			t.Fatal(err)
		}
		ts := profiler.BuildSpace(d.Tradeoffs, 28)
		n := len(d.Tradeoffs)
		if d.NumDeps != 1 {
			if want := d.NumDeps * (n + 5); ms.Len() != want {
				t.Errorf("%s: module space has %d dimensions, want %d per dependence", d.Name, ms.Len(), n+5)
			}
			continue
		}
		oneDep++
		dep := m.Deps[0].Name
		if ms.Len() != n+5 || ts.Len() != n+6 {
			t.Fatalf("%s: %d module and %d tuner dimensions for %d tradeoffs", d.Name, ms.Len(), ts.Len(), n)
		}
		for i, md := range ms.Dims() {
			td := ts.Dims()[i]
			prefix, tprefix := dep, "dep"
			if i < n {
				name := d.Tradeoffs[i].Name
				prefix, tprefix = "aux.TO_"+name+"$aux$"+dep, "aux."+name
			}
			if !strings.HasPrefix(md.Name, prefix) || !strings.HasPrefix(td.Name, tprefix) ||
				strings.TrimPrefix(md.Name, prefix) != strings.TrimPrefix(td.Name, tprefix) ||
				md.Size != td.Size || md.Default != td.Default || !reflect.DeepEqual(md.Values, td.Values) {
				t.Errorf("%s: dimension %d differs: module %+v, tuner %+v", d.Name, i, md, td)
			}
		}

		r := rng.New(0x5eed)
		for k := 0; k < 200; k++ {
			tc := ts.Random(r)
			mc := tc[:ms.Len()].Clone()
			p, err := backend.Compile(m, mc)
			if err != nil {
				t.Fatalf("%s: config %v: %v", d.Name, mc, err)
			}
			want, _ := profiler.Decode(ts, tc)
			if !reflect.DeepEqual(want.TradeoffIdx, []int64(mc[:n])) {
				t.Fatalf("%s: tuner tradeoff indices %v, module's %v", d.Name, want.TradeoffIdx, mc[:n])
			}
			want.TradeoffIdx = nil
			if got := p.Runtime[dep]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: config %v decodes to %+v for statsc, %+v for the tuner", d.Name, tc, got, want)
			}
		}
	}
	if oneDep < 3 {
		t.Fatalf("only %d targets with one dependence", oneDep)
	}
}
