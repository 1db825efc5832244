package energy

import (
	"testing"

	"repro/internal/platform"
)

func interval(start, end float64, threads, cores, sockets int) platform.Interval {
	return platform.Interval{Start: start, End: end, BusyThreads: threads, BusyCores: cores, ActiveSockets: sockets}
}

func TestPowerComposition(t *testing.T) {
	m := Model{BasePower: 100, SocketPower: 20, CorePower: 5, ThreadPower: 1}
	iv := interval(0, 1, 4, 4, 1)
	// 100 + 20 + 4*5 = 140, no HT extra.
	if got := m.Power(iv); got != 140 {
		t.Fatalf("power: %v", got)
	}
	// Two HT threads sharing each of 2 cores: 2 extra threads.
	iv2 := interval(0, 1, 4, 2, 1)
	if got := m.Power(iv2); got != 100+20+10+2 {
		t.Fatalf("HT power: %v", got)
	}
}

func TestEnergyIntegration(t *testing.T) {
	m := Model{BasePower: 10, SocketPower: 0, CorePower: 1}
	res := platform.Result{
		Makespan: 3,
		Intervals: []platform.Interval{
			interval(0, 1, 2, 2, 1),
			interval(1, 3, 1, 1, 1),
		},
	}
	// (10+2)*1 + (10+1)*2 = 34.
	if got := m.Energy(res); got != 34 {
		t.Fatalf("energy: %v", got)
	}
}

func TestIdleTailDrawsBasePower(t *testing.T) {
	m := Model{BasePower: 7}
	res := platform.Result{Makespan: 5, Intervals: []platform.Interval{interval(0, 2, 1, 1, 1)}}
	// 2s covered at 7W + 3s idle at 7W = 35.
	if got := m.Energy(res); got != 35 {
		t.Fatalf("energy with idle tail: %v", got)
	}
}

func TestFasterRunUsesLessEnergy(t *testing.T) {
	// The same work done in less time on more cores can still save
	// energy because base power dominates: the Fig. 15 time-mode effect.
	m := Default()
	g := &platform.Graph{}
	for i := 0; i < 28; i++ {
		g.Add(10)
	}
	mach := platform.Haswell28(false)
	slow := platform.Simulate(mach, g, 2)
	fast := platform.Simulate(mach, g, 28)
	if platformEnergy := m.Energy(fast); platformEnergy >= m.Energy(slow) {
		t.Fatalf("fast run should save energy: fast %v, slow %v", platformEnergy, m.Energy(slow))
	}
}

func TestFewerIdleCoresSaveEnergyAtEqualTime(t *testing.T) {
	// Two runs with the same makespan: the one that keeps fewer cores
	// busy draws less energy — the Fig. 15 energy-mode effect.
	m := Default()
	mach := platform.Haswell28(false)
	gNarrow := &platform.Graph{}
	for i := 0; i < 4; i++ {
		gNarrow.Add(10)
	}
	gWide := &platform.Graph{}
	for i := 0; i < 28; i++ {
		gWide.Add(10)
	}
	narrow := platform.Simulate(mach, gNarrow, 4) // 4 cores, 10s
	wide := platform.Simulate(mach, gWide, 28)    // 28 cores, 10s
	if narrow.Makespan != wide.Makespan {
		t.Fatalf("setup broken: %v vs %v", narrow.Makespan, wide.Makespan)
	}
	if m.Energy(narrow) >= m.Energy(wide) {
		t.Fatal("narrow run should draw less energy")
	}
}

func TestDefaultCalibration(t *testing.T) {
	// A fully busy socket should draw roughly the package's 120 W peak.
	m := Default()
	socket := m.SocketPower + 14*m.CorePower
	if socket < 100 || socket > 130 {
		t.Fatalf("socket peak %v out of plausible range", socket)
	}
}
