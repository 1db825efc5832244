package harness

import (
	"testing"

	"repro/internal/fault"
)

// TestChaosCampaign is the acceptance test for fault-tolerant speculation:
// every scenario must complete without a crash, preserve the sequential
// baseline's outputs exactly, and reconcile its failure accounting across
// engine Stats, the event log and the live /metrics scrape.
func TestChaosCampaign(t *testing.T) {
	e := NewEnv(true)
	res, err := ChaosRun(e)
	if err != nil {
		t.Fatalf("chaos campaign: %v", err)
	}
	if len(res) < 8 {
		t.Fatalf("scenarios run: %d", len(res))
	}
	byName := map[string]ChaosResult{}
	for _, r := range res {
		byName[r.Name] = r
		if !r.OutputsIdentical {
			t.Errorf("%s: outputs diverged from the sequential baseline", r.Name)
		}
		if !r.Reconciled {
			t.Errorf("%s: failure counters did not reconcile (stats/events/scrape)", r.Name)
		}
		if r.MidScrapes != r.Runs {
			t.Errorf("%s: %d mid-run scrapes for %d runs", r.Name, r.MidScrapes, r.Runs)
		}
	}

	if r := byName["aux-panic 10%"]; r.AuxPanics == 0 || r.PanickedGroups == 0 {
		t.Errorf("aux-panic: injected %d, panicked groups %d; want both > 0", r.AuxPanics, r.PanickedGroups)
	}
	if r := byName["garbage 10%"]; r.Garbage == 0 || r.Aborts == 0 {
		t.Errorf("garbage: injected %d, aborts %d; want both > 0", r.Garbage, r.Aborts)
	}
	if r := byName["compute transient"]; r.ComputePanics == 0 || r.PanickedGroups < int(r.ComputePanics) {
		t.Errorf("compute transient: injected %d, panicked groups %d", r.ComputePanics, r.PanickedGroups)
	}
	if r := byName["mixed + breaker"]; r.BreakerTrips < 1 || r.BreakerDenied < 1 {
		t.Errorf("mixed + breaker: trips %d denied %d; want breaker engaged", r.BreakerTrips, r.BreakerDenied)
	}
	if r := byName["delay + deadline"]; r.Delays == 0 || r.TimedOutGroups == 0 {
		t.Errorf("delay + deadline: injected %d delays, timed-out groups %d", r.Delays, r.TimedOutGroups)
	}
	if r := byName["reservations transient"]; r.ComputePanics == 0 || r.PanickedGroups < int(r.ComputePanics) || r.Rounds == 0 {
		t.Errorf("reservations transient: injected %d, panicked groups %d, rounds %d; want the panic landing in a run of rounds", r.ComputePanics, r.PanickedGroups, r.Rounds)
	}
	if r := byName["reservations late transient"]; r.ComputePanics == 0 || r.PanickedGroups < int(r.ComputePanics) || r.Rounds == 0 || r.ConventionalInputs == 0 {
		t.Errorf("reservations late transient: injected %d, panicked groups %d, rounds %d, conventional inputs %d; want the panic landing after streaks have committed",
			r.ComputePanics, r.PanickedGroups, r.Rounds, r.ConventionalInputs)
	}
	if r := byName["lying footprint"]; r.FootprintViolations == 0 || r.Rounds == 0 {
		t.Errorf("lying footprint: %d violations caught over %d rounds; want the oracle firing", r.FootprintViolations, r.Rounds)
	}
}

// TestChaosDeterministicInjection requires the auxiliary-code sites to
// inject exactly what the scenario's seed dictates for the aux calls the
// engine counted. Aux runs on the group lanes and a squashed group skips
// it, so how many calls a campaign makes is the schedule's; which call
// ordinals fire is the seed's alone, and a fresh injector replays them.
func TestChaosDeterministicInjection(t *testing.T) {
	e := NewEnv(true)
	res, err := ChaosRun(e)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	for i, sc := range chaosScenarios(e.Seed) {
		in := fault.New(sc.Cfg)
		aux := fault.WrapAux(in, chaosAux, chaosGarbage)
		for c := 0; c < res[i].AuxCalls; c++ {
			func() {
				defer func() { _ = recover() }() // an injected aux panic
				aux(nil, []float64{0}, nil)
			}()
		}
		if got, want := [2]uint64{res[i].AuxPanics, res[i].Garbage}, [2]uint64{in.Fired(fault.SiteAux), in.Fired(fault.SiteGarbage)}; got != want {
			t.Errorf("%s: %d aux calls injected %d panics / %d garbage states, the seed dictates %d / %d",
				sc.Name, res[i].AuxCalls, got[0], got[1], want[0], want[1])
		}
	}
}
