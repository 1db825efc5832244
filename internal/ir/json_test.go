package ir_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/midend"
	"repro/internal/tradeoff"
)

// TestJSONRoundTrip lowers each workload's declaration, encodes it and
// decodes it again: instructions, metadata and positions survive, and the
// decoded module analyzes as clean as the original.
func TestJSONRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("../workload/*/*.stats")
	if err != nil || len(paths) != 6 {
		t.Fatalf("want the six workload declarations, got %v (%v)", paths, err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fo, err := frontend.Translate(string(src))
		if err != nil {
			t.Fatal(err)
		}
		m, err := midend.Lower(fo)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ir.DecodeJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := back.InstrCount(), m.InstrCount(); got != want {
			t.Fatalf("%s: instr count after round trip = %d, want %d", path, got, want)
		}
		if len(back.Tradeoffs) != len(m.Tradeoffs) || !reflect.DeepEqual(back.Deps, m.Deps) {
			t.Fatalf("%s: metadata lost in round trip: deps %+v, want %+v", path, back.Deps, m.Deps)
		}
		// The decoded module must be just as clean under analysis.
		if ds := analysis.Analyze(back); len(ds) != 0 {
			t.Fatalf("%s: round-tripped module produced diagnostics: %v", path, ds)
		}
		// Positions survive the trip.
		if p := back.Deps[0].Pos; !p.IsValid() {
			t.Fatalf("%s: dep position lost in round trip", path)
		}
	}
}

// TestDecodeRefusesUnknownKind pins the decoder's refusal of a tradeoff
// kind spelled other than tradeoff.Kind.String does, naming the tradeoff
// and the spelling, and its acceptance of the three kinds.
func TestDecodeRefusesUnknownKind(t *testing.T) {
	doc := func(kind string) string {
		return `{"functions": [], "tradeoffs": [{"name": "TO_x", "kind": "` + kind +
			`", "getValue": "gv", "size": 2, "default": 0}]}`
	}
	for _, kind := range []string{"banana", "Constant", ""} {
		_, err := ir.DecodeJSON(strings.NewReader(doc(kind)))
		want := `ir: tradeoff TO_x: unknown kind "` + kind + `"`
		if err == nil || err.Error() != want {
			t.Errorf("kind %q: err %v, want %s", kind, err, want)
		}
	}
	for _, k := range []tradeoff.Kind{tradeoff.Constant, tradeoff.Type, tradeoff.Function} {
		m, err := ir.DecodeJSON(strings.NewReader(doc(k.String())))
		if err != nil || len(m.Tradeoffs) != 1 || m.Tradeoffs[0].Kind != k {
			t.Errorf("kind %v: err %v, module %+v", k, err, m)
		}
	}
}
