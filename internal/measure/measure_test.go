package measure

import (
	"testing"

	"repro/internal/rng"
)

func TestRepeatConvergesOnStableSamples(t *testing.T) {
	res := Repeat(func(int) float64 { return 42 }, Options{})
	if !res.Converged {
		t.Fatal("constant samples should converge")
	}
	if res.Mean != 42 || res.StdDev != 0 {
		t.Fatalf("stats: %+v", res)
	}
	if len(res.Samples) != 3 {
		t.Fatalf("should converge at MinRuns: %d samples", len(res.Samples))
	}
}

func TestRepeatKeepsSamplingNoisyMeasurements(t *testing.T) {
	r := rng.New(1)
	// 20% relative noise: needs more than MinRuns to satisfy 95%-within-5%.
	res := Repeat(func(int) float64 { return 100 * (1 + 0.2*r.Norm()) }, Options{MaxRuns: 40})
	if len(res.Samples) <= 3 {
		t.Fatalf("noisy measurement converged suspiciously fast: %d samples", len(res.Samples))
	}
}

func TestRepeatExhaustsBudget(t *testing.T) {
	// Alternating far-apart values can never satisfy the rule.
	res := Repeat(func(run int) float64 {
		if run%2 == 0 {
			return 1
		}
		return 100
	}, Options{MaxRuns: 10})
	if res.Converged {
		t.Fatal("bimodal samples should not converge")
	}
	if len(res.Samples) != 10 {
		t.Fatalf("samples: %d", len(res.Samples))
	}
}

// TestRepeatHonoursBounds pins the repetition bounds: a caller's MaxRuns
// is a cap even below the default MinRuns, an explicit MinRuns above the
// default cap is a floor, and MinRuns above an explicit MaxRuns is clamped
// to it. The last two rows are the harness's Fig. 2 shape at Runs 30 and 8.
func TestRepeatHonoursBounds(t *testing.T) {
	stable := func(int) float64 { return 42 }
	bimodal := func(run int) float64 { return float64(1 + 99*(run%2)) }
	for _, c := range []struct {
		name      string
		sample    func(int) float64
		o         Options
		calls     int
		converged bool
	}{
		{"cap below default MinRuns", stable, Options{MaxRuns: 2}, 2, true},
		{"MinRuns above default cap", stable, Options{MinRuns: 200}, 200, true},
		{"MinRuns clamped to MaxRuns", stable, Options{MinRuns: 10, MaxRuns: 4}, 4, true},
		{"converges at MinRuns", stable, Options{MinRuns: 15, MaxRuns: 30}, 15, true},
		{"exhausts MaxRuns", bimodal, Options{MinRuns: 4, MaxRuns: 8}, 8, false},
	} {
		res := Repeat(c.sample, c.o)
		if len(res.Samples) != c.calls || res.Converged != c.converged {
			t.Errorf("%s: %d calls, converged %v; want %d, %v",
				c.name, len(res.Samples), res.Converged, c.calls, c.converged)
		}
	}
}

func TestRepeatPassesRunIndex(t *testing.T) {
	var got []int
	Repeat(func(run int) float64 {
		got = append(got, run)
		return 1
	}, Options{MinRuns: 2})
	if len(got) < 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("run indices: %v", got)
	}
}

func TestDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MinRuns != 3 || o.MaxRuns != 100 {
		t.Fatalf("defaults: %+v", o)
	}
}
