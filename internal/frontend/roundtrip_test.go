package frontend

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tradeoff"
)

// declSpec is a generated tradeoff declaration used by the round-trip
// property test: any structurally valid declaration must parse back to
// exactly what was generated.
type declSpec struct {
	Kind    int   // 0 constant, 1 type, 2 function
	Lo, Hi  int64 // constant range
	Names   int   // enum value count
	DefIdx  int64
	HostPre int // host lines before the block
}

func (d declSpec) normalize() declSpec {
	d.Kind = abs(d.Kind) % 3
	d.Lo = abs64(d.Lo) % 50
	d.Hi = d.Lo + abs64(d.Hi)%20
	d.Names = abs(d.Names)%5 + 1
	if d.Kind == 0 {
		d.DefIdx = abs64(d.DefIdx) % (d.Hi - d.Lo + 1)
	} else {
		d.DefIdx = abs64(d.DefIdx) % int64(d.Names)
	}
	d.HostPre = abs(d.HostPre) % 4
	return d
}

func (d declSpec) source(i int) string {
	var b strings.Builder
	for h := 0; h < d.HostPre; h++ {
		fmt.Fprintf(&b, "// host line %d-%d\n", i, h)
	}
	fmt.Fprintf(&b, "tradeoff TO_gen%d {\n", i)
	switch d.Kind {
	case 0:
		fmt.Fprintf(&b, "    kind constant;\n    values %d..%d;\n", d.Lo, d.Hi)
	case 1:
		b.WriteString("    kind type;\n    values ")
	default:
		b.WriteString("    kind function;\n    values ")
	}
	if d.Kind != 0 {
		var names []string
		for n := 0; n < d.Names; n++ {
			names = append(names, fmt.Sprintf("val%d_%d", i, n))
		}
		b.WriteString(strings.Join(names, ", "))
		b.WriteString(";\n")
	}
	fmt.Fprintf(&b, "    default %d;\n}\n", d.DefIdx)
	return b.String()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestTranslateRoundTripProperty(t *testing.T) {
	f := func(specs []declSpec) bool {
		if len(specs) > 6 {
			specs = specs[:6]
		}
		var src strings.Builder
		for i := range specs {
			specs[i] = specs[i].normalize()
			src.WriteString(specs[i].source(i))
		}
		out, err := Translate(src.String())
		if err != nil {
			t.Logf("translate error: %v\nsource:\n%s", err, src.String())
			return false
		}
		if len(out.Tradeoffs) != len(specs) {
			return false
		}
		for i, d := range specs {
			got := out.Tradeoffs[i]
			if got.Name != fmt.Sprintf("TO_gen%d", i) {
				return false
			}
			if got.Kind != tradeoff.Kind(d.Kind) || got.Default != d.DefIdx {
				return false
			}
			if d.Kind == 0 {
				if got.Lo != d.Lo || got.Hi != d.Hi {
					return false
				}
			} else if int(got.Size) != d.Names {
				return false
			}
			// IDs are assigned sequentially from 42.
			if got.ID != 42+i {
				return false
			}
		}
		// Host lines survive into the standard source.
		for i, d := range specs {
			for h := 0; h < d.HostPre; h++ {
				if !strings.Contains(out.StandardSource, fmt.Sprintf("// host line %d-%d", i, h)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateHeaderConsistentWithDeclsProperty(t *testing.T) {
	f := func(specs []declSpec) bool {
		if len(specs) > 4 {
			specs = specs[:4]
		}
		var src strings.Builder
		for i := range specs {
			specs[i] = specs[i].normalize()
			src.WriteString(specs[i].source(i))
		}
		out, err := Translate(src.String())
		if err != nil {
			return false
		}
		for _, decl := range out.Tradeoffs {
			// Every declared tradeoff appears in the generated header
			// with its size and default accessors.
			for _, want := range []string{
				fmt.Sprintf("int64_t T_%d(int64_t p)", decl.ID),
				fmt.Sprintf("T_%d_size() { return %d; }", decl.ID, decl.Size),
				fmt.Sprintf("T_%d_getDefaultIndex() { return %d; }", decl.ID, decl.Default),
			} {
				if !strings.Contains(out.Header, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
