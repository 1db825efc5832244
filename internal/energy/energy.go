// Package energy models the paper's system-wide energy measurements. The
// paper measures AC-side total system power with a Watts Up Pro meter at
// 1-second intervals (§4.1); here a calibrated power model is integrated
// over the platform simulator's occupancy trace instead. The model captures
// the two effects Fig. 15 depends on: finishing earlier saves energy
// (time mode), and leaving cores idle saves more (energy mode, which avoids
// "using extra cores if the additional performance obtained by them is not
// significant").
package energy

import "repro/internal/platform"

// Model is an affine system power model: a base draw for the machine being
// on, a per-active-socket draw (uncore, memory controller), a per-busy-core
// draw, and a small extra per busy hardware thread (Hyper-Threading keeps
// the core's structures busier).
type Model struct {
	// BasePower is drawn whenever the system is on (fans, disks, DRAM
	// refresh, PSU loss), in watts.
	BasePower float64
	// SocketPower is drawn per socket with at least one busy core.
	SocketPower float64
	// CorePower is drawn per busy core.
	CorePower float64
	// ThreadPower is drawn per busy hardware thread beyond the first on
	// a core.
	ThreadPower float64
}

// Default returns a model calibrated to the paper's platform: two Xeon
// E5-2695 v3 packages with a 120 W peak each. 14 busy cores at 6.5 W plus
// a 26 W uncore ≈ 117 W ≈ the package peak; 60 W covers the rest of the
// system at the wall.
func Default() Model {
	return Model{BasePower: 60, SocketPower: 26, CorePower: 6.5, ThreadPower: 1.5}
}

// Power returns the modeled instantaneous system power for an occupancy
// interval.
func (m Model) Power(iv platform.Interval) float64 {
	p := m.BasePower
	p += float64(iv.ActiveSockets) * m.SocketPower
	p += float64(iv.BusyCores) * m.CorePower
	if extra := iv.BusyThreads - iv.BusyCores; extra > 0 {
		p += float64(extra) * m.ThreadPower
	}
	return p
}

// Energy integrates the model over a simulation's occupancy trace and
// returns joules (watts × simulated seconds; one work unit is one second at
// full speed).
func (m Model) Energy(res platform.Result) float64 {
	e := 0.0
	covered := 0.0
	for _, iv := range res.Intervals {
		dt := iv.End - iv.Start
		e += dt * m.Power(iv)
		covered += dt
	}
	// Any uncovered makespan (fully idle spans) draws base power.
	if res.Makespan > covered {
		e += (res.Makespan - covered) * m.BasePower
	}
	return e
}
