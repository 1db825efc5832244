package space

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func demoSpace() *Space {
	s := New()
	s.Add(Dimension{Name: "layers", Kind: TradeoffDim, Size: 10, Default: 4})
	s.AddDependence("track", []int64{1, 2, 4}, []int64{0, 1, 2, 3}, []int64{1, 2, 4}, []int64{1, 2, 4, 8})
	s.AddThreadSplit(8)
	return s
}

func TestAddValidation(t *testing.T) {
	cases := []Dimension{
		{Name: "zero", Size: 0},
		{Name: "neg-default", Size: 3, Default: -1},
		{Name: "big-default", Size: 3, Default: 3},
		{Name: "bad-values", Size: 3, Values: []int64{1}},
	}
	for _, d := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Add(%s) did not panic", d.Name)
				}
			}()
			s := New()
			s.Add(d)
		}()
	}
	// Duplicate names panic too.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate Add did not panic")
			}
		}()
		s := New()
		s.Add(Dimension{Name: "x", Size: 2})
		s.Add(Dimension{Name: "x", Size: 2})
	}()
}

func TestCardinality(t *testing.T) {
	s := demoSpace()
	// 10 * (2*3*4*3*4) * 8 = 10 * 288 * 8 = 23040.
	if got := s.Cardinality(); got != 23040 {
		t.Fatalf("Cardinality: %v", got)
	}
}

func TestDefaultConfigValidates(t *testing.T) {
	s := demoSpace()
	c := s.Default()
	if err := s.Validate(c); err != nil {
		t.Fatal(err)
	}
	// Default disables aux and gives all threads to the original program.
	if v, _ := s.Lookup(c, "track.aux"); v != 0 {
		t.Fatalf("default aux: %d", v)
	}
	if v, _ := s.Lookup(c, "threads.original"); v != 8 {
		t.Fatalf("default thread split: %d", v)
	}
}

func TestValidateRejects(t *testing.T) {
	s := demoSpace()
	if err := s.Validate(Config{0}); err == nil {
		t.Fatal("short config accepted")
	}
	c := s.Default()
	c[0] = 99
	if err := s.Validate(c); err == nil {
		t.Fatal("out-of-range config accepted")
	}
}

func TestRandomAlwaysValid(t *testing.T) {
	s := demoSpace()
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		if err := s.Validate(s.Random(r)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNeighborValidAndClose(t *testing.T) {
	s := demoSpace()
	r := rng.New(2)
	c := s.Default()
	for i := 0; i < 200; i++ {
		n := s.Neighbor(r, c, 2)
		if err := s.Validate(n); err != nil {
			t.Fatal(err)
		}
		diff := 0
		for j := range n {
			if n[j] != c[j] {
				diff++
			}
		}
		if diff > 1 {
			t.Fatalf("neighbor changed %d dimensions", diff)
		}
	}
}

func TestCrossoverTakesFromParents(t *testing.T) {
	s := demoSpace()
	r := rng.New(3)
	a := s.Default()
	b := s.Random(r)
	c := s.Crossover(r, a, b)
	if err := s.Validate(c); err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if c[i] != a[i] && c[i] != b[i] {
			t.Fatalf("dimension %d value %d from neither parent", i, c[i])
		}
	}
}

func TestLookupAndSet(t *testing.T) {
	s := demoSpace()
	c := s.Default()
	if !s.Set(c, "track.group", 3) {
		t.Fatal("Set failed")
	}
	if v, ok := s.Lookup(c, "track.group"); !ok || v != 8 {
		t.Fatalf("Lookup after Set: %d %v", v, ok)
	}
	if _, ok := s.Lookup(c, "nope"); ok {
		t.Fatal("Lookup of missing dimension succeeded")
	}
	if s.Set(c, "nope", 0) {
		t.Fatal("Set of missing dimension succeeded")
	}
}

func TestSetPanicsOutOfRange(t *testing.T) {
	s := demoSpace()
	c := s.Default()
	defer func() {
		if recover() == nil {
			t.Fatal("Set out of range did not panic")
		}
	}()
	s.Set(c, "layers", 10)
}

func TestDimensionValueMapping(t *testing.T) {
	d := Dimension{Name: "g", Size: 3, Values: []int64{1, 4, 16}}
	if d.Value(1) != 4 {
		t.Fatal("mapped value")
	}
	id := Dimension{Name: "i", Size: 5}
	if id.Value(3) != 3 {
		t.Fatal("identity value")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Value out of range did not panic")
		}
	}()
	d.Value(3)
}

func TestConfigKeyRoundTrip(t *testing.T) {
	a := Config{1, 2, 3}
	b := Config{1, 2, 3}
	c := Config{1, 2, 4}
	if a.Key() != b.Key() {
		t.Fatal("equal configs, different keys")
	}
	if a.Key() == c.Key() {
		t.Fatal("different configs, same key")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Config{1, 2}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone aliases parent")
	}
}

func TestFind(t *testing.T) {
	s := demoSpace()
	if i, ok := s.Find("layers"); !ok || s.Dims()[i].Name != "layers" {
		t.Fatal("Find layers")
	}
	if _, ok := s.Find("absent"); ok {
		t.Fatal("Find absent")
	}
}

func TestRandomCoversSpaceProperty(t *testing.T) {
	s := New()
	s.Add(Dimension{Name: "d", Size: 4})
	f := func(seed uint64) bool {
		c := s.Random(rng.New(seed))
		return c[0] >= 0 && c[0] < 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
