package frontend

import (
	"strings"
	"testing"
)

// FuzzTranslate asserts the front-end never panics and maintains its
// invariants on arbitrary input: run with `go test -fuzz=FuzzTranslate`
// to explore; under plain `go test` the seed corpus runs.
func FuzzTranslate(f *testing.F) {
	seeds := []string{
		"",
		"plain host code\nint main() {}\n",
		"tradeoff T {\n kind constant;\n values 1..3;\n default 0;\n}\n",
		"tradeoff T {\n kind type;\n values a, b;\n default 1;\n}\n",
		"statedep d {\n input I;\n state S;\n output O;\n compute f;\n}\n",
		"tradeoff T {\n kind constant;\n values 1..3;\n default 0;\n}\nstatedep d {\n input I;\n state S;\n output O;\n compute f uses T;\n}\n",
		"tradeoff broken {\n",
		"tradeoff X {\n kind banana;\n}\n",
		"statedep {\n}\n",
		"tradeoff T {\n kind constant;\n values 9..1;\n default 0;\n}\n",
		"statedep d {\n compute f uses Missing;\n input I;\n state S;\n output O;\n}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		out, err := Translate(src)
		if err != nil {
			// Errors must be positioned front-end diagnostics.
			if !strings.HasPrefix(err.Error(), "frontend: line ") {
				t.Fatalf("unpositioned error: %v", err)
			}
			return
		}
		// Invariants of a successful translation.
		if out.GeneratedLOC < 1 {
			t.Fatalf("generated LOC %d", out.GeneratedLOC)
		}
		for i, tr := range out.Tradeoffs {
			if tr.ID != 42+i {
				t.Fatalf("tradeoff %d id %d", i, tr.ID)
			}
			if tr.Size <= 0 {
				t.Fatalf("tradeoff %s empty", tr.Name)
			}
			if tr.Default < 0 || tr.Default >= tr.Size {
				t.Fatalf("tradeoff %s default out of range", tr.Name)
			}
		}
		for _, d := range out.Deps {
			if d.Compute == "" || d.Input == "" || d.State == "" || d.Output == "" {
				t.Fatalf("incomplete dep %+v", d)
			}
		}
		// The extension keywords never survive into standard source.
		for _, line := range strings.Split(out.StandardSource, "\n") {
			trimmed := strings.TrimSpace(line)
			if strings.HasPrefix(trimmed, "tradeoff ") || strings.HasPrefix(trimmed, "statedep ") {
				t.Fatalf("extension block leaked: %q", line)
			}
		}
	})
}
