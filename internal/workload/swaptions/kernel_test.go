package swaptions

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tradeoff"
	"repro/internal/workload"
)

// simulateTrialReference is the textbook form of simulateTrial: each step
// draws its two normals and grows the curve at once, so every Exp waits on
// the draws before it. simulateTrial must match it bit for bit.
func simulateTrialReference(r *rng.Source, s Swaption, p params) float64 {
	dt := s.Maturity / pathSteps
	const curvePoints = 4
	var fwd [curvePoints]float64
	for k := range fwd {
		fwd[k] = s.Rate
	}
	shiftVol := s.Vol * 0.85
	twistVol := s.Vol * 0.55
	discountExp := 0.0
	for i := 0; i < pathSteps; i++ {
		var z [hjmFactors]float64
		for f := range z {
			z[f] = r.Norm()
		}
		discountExp += fwd[0] * dt
		for k := range fwd {
			tilt := (float64(k)/(curvePoints-1) - 0.5) * 2
			drift := -0.5 * (shiftVol*shiftVol + twistVol*twistVol*tilt*tilt) * dt
			diffusion := shiftVol*math.Sqrt(dt)*z[0] + twistVol*tilt*math.Sqrt(dt)*z[1]
			fwd[k] *= math.Exp(p.pathPrec.Quantize(drift + diffusion))
			fwd[k] = p.pathPrec.Quantize(fwd[k])
		}
	}
	swapRate := 0.0
	for _, f := range fwd {
		swapRate += f
	}
	swapRate /= curvePoints
	payoff := swapRate - s.Strike
	if payoff < 0 {
		payoff = 0
	}
	discount := p.discPrec.Quantize(math.Exp(-discountExp))
	return p.discPrec.Quantize(payoff * discount * s.Tenor * 100)
}

var precisions = []tradeoff.Precision{tradeoff.Half, tradeoff.Single, tradeoff.Double}

// TestSimulateTrialMatchesReference: on random swaptions at all nine
// path/discount precisions, simulateTrial returns the reference's bits over a
// run of trials on one stream, and leaves the stream where the reference
// does (the next normal draw agrees too).
func TestSimulateTrialMatchesReference(t *testing.T) {
	gen := rng.New(0x5A9)
	for _, path := range precisions {
		for _, disc := range precisions {
			p := params{pathPrec: path, discPrec: disc}
			for c := 0; c < 40; c++ {
				s := Swaption{
					Strike:   gen.Range(0, 0.06),
					Maturity: gen.Range(0.1, 60),
					Tenor:    gen.Range(0.1, 5),
					Vol:      gen.Range(0.05, 0.95),
					Rate:     gen.Range(0.001, 0.06),
				}
				seed := gen.Uint64()
				kernel, ref := rng.New(seed), rng.New(seed)
				for trial := 0; trial < 8; trial++ {
					got, want := simulateTrial(kernel, s, p), simulateTrialReference(ref, s, p)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("path %v, discount %v, %+v, trial %d: %v, reference %v", path, disc, s, trial, got, want)
					}
				}
				if got, want := kernel.Norm(), ref.Norm(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("path %v, discount %v, %+v: next draw %v, reference %v", path, disc, s, got, want)
				}
			}
		}
	}
}

// trialLoop is the measured body of BenchmarkSimulateTrial and of its
// allocation ceiling: one default-precision trial of the portfolio's first
// swaption.
func trialLoop() func() {
	s := portfolio(numSwaptions, false)[0]
	p := New().resolve(workload.SpecOptions{}, true)
	r := rng.New(1)
	return func() { simulateTrial(r, s, p) }
}

func BenchmarkSimulateTrial(b *testing.B) {
	body := trialLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

// TestSimulateTrialAllocations: a trial keeps its draws, growth factors and
// curve on the stack.
func TestSimulateTrialAllocations(t *testing.T) {
	if got := testing.AllocsPerRun(100, trialLoop()); got != 0 {
		t.Fatalf("a trial makes %v allocations, want 0", got)
	}
}
