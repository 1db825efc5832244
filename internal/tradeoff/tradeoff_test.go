package tradeoff

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntRange(t *testing.T) {
	r := IntRange{Lo: 1, Hi: 10, Default: 4}
	if r.MaxIndex() != 10 {
		t.Fatalf("MaxIndex: %d", r.MaxIndex())
	}
	if r.Value(0).(int64) != 1 || r.Value(9).(int64) != 10 {
		t.Fatal("Value endpoints")
	}
	if r.DefaultIndex() != 4 {
		t.Fatal("DefaultIndex")
	}
}

func TestIntRangePanicsOutOfRange(t *testing.T) {
	r := IntRange{Lo: 0, Hi: 3}
	for _, i := range []int64{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Value(%d) did not panic", i)
				}
			}()
			r.Value(i)
		}()
	}
}

func TestEnum(t *testing.T) {
	e := Enum{Values: []any{"a", "b", "c"}, Default: 1}
	if e.MaxIndex() != 3 {
		t.Fatal("MaxIndex")
	}
	if e.Value(2).(string) != "c" {
		t.Fatal("Value")
	}
	if e.DefaultIndex() != 1 {
		t.Fatal("DefaultIndex")
	}
}

func TestNewValidates(t *testing.T) {
	cases := []Options{
		nil,
		Enum{},                              // no values
		Enum{Values: []any{1}, Default: 1},  // default out of range
		IntRange{Lo: 5, Hi: 4},              // empty range
		IntRange{Lo: 0, Hi: 2, Default: -1}, // negative default
	}
	for i, opts := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: New did not panic", i)
				}
			}()
			New("bad", Constant, opts)
		}()
	}
}

func TestDefaultAndClone(t *testing.T) {
	tr := New("AnnealingLayers", Constant, IntRange{Lo: 1, Hi: 10, Default: 4})
	if tr.Default().(int64) != 5 {
		t.Fatalf("Default: %v", tr.Default())
	}
	c := tr.Clone("AnnealingLayers$aux")
	if c.Name != "AnnealingLayers$aux" || c.Kind != Constant {
		t.Fatal("Clone metadata")
	}
	if c.Default().(int64) != tr.Default().(int64) {
		t.Fatal("Clone options should be shared")
	}
}

func TestKindString(t *testing.T) {
	if Constant.String() != "constant" || Type.String() != "type" || Function.String() != "function" {
		t.Fatal("Kind strings")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind string")
	}
}

// TestParseKind pins the one parser of a kind's spelling: it inverts
// String for every kind and refuses every other spelling, including an
// unknown kind's String and the names' case and padding variants.
func TestParseKind(t *testing.T) {
	for _, k := range []Kind{Constant, Type, Function} {
		if got, ok := ParseKind(k.String()); !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, true", k.String(), got, ok, k)
		}
	}
	for _, s := range []string{"", "Constant", "TYPE", " function", "type ", "func", "banana", Kind(3).String(), "0"} {
		if k, ok := ParseKind(s); ok {
			t.Errorf("ParseKind(%q) = %v, true; want a refusal", s, k)
		}
	}
}

func TestPrecisionEnum(t *testing.T) {
	e := PrecisionEnum()
	if e.MaxIndex() != 3 {
		t.Fatal("precision count")
	}
	if e.Value(e.DefaultIndex()).(Precision) != Double {
		t.Fatal("default precision should be double")
	}
}

func TestPrecisionCostMonotone(t *testing.T) {
	if !(Half.CostFactor() < Single.CostFactor() && Single.CostFactor() < Double.CostFactor()) {
		t.Fatal("cost factors must be monotone in precision")
	}
}

func TestPrecisionQuantize(t *testing.T) {
	if Double.Quantize(math.Pi) != math.Pi {
		t.Fatal("double must be exact")
	}
	if got := Single.Quantize(math.Pi); got == math.Pi || math.Abs(got-math.Pi) > 1e-6 {
		t.Fatalf("single quantization: %v", got)
	}
	if got := Half.Quantize(math.Pi); math.Abs(got-math.Pi) > 1.0/256 {
		t.Fatalf("half quantization too coarse: %v", got)
	}
}

func TestQuantizeErrorOrderedProperty(t *testing.T) {
	f := func(v int16) bool {
		x := float64(v) / 100
		eh := math.Abs(Half.Quantize(x) - x)
		es := math.Abs(Single.Quantize(x) - x)
		ed := math.Abs(Double.Quantize(x) - x)
		return ed == 0 && es <= eh+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrecisionString(t *testing.T) {
	if Half.String() != "half" || Single.String() != "single" || Double.String() != "double" {
		t.Fatal("precision strings")
	}
	if Precision(7).String() != "Precision(7)" {
		t.Fatal("unknown precision string")
	}
}
