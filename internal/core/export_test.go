package core

// CheckFacts exposes the fact-table reconciliation (obs_test.go) to the
// external test package's reservation and differential suites.
var CheckFacts = checkFacts

// SplitReservationArg inverts ReservationArg.
func SplitReservationArg(arg int64) (round, input int) {
	return int(arg >> 32), int(uint32(arg))
}
