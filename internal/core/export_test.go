package core

// CheckFacts exposes the fact-table reconciliation (obs_test.go) to the
// external test package's reservation and differential suites.
var CheckFacts = checkFacts

// SplitReservationArg inverts ReservationArg.
func SplitReservationArg(arg int64) (round, input int) {
	return int(arg >> 32), int(uint32(arg))
}

// drainScratch empties every scratch free list, so the run after it is the
// first of its type: the truly cold path. Garbage collection does not empty
// the lists, so nothing else makes a run cold again.
func drainScratch() {
	scratchStores.Range(func(_, l any) bool {
		l.(interface{ Drain() }).Drain()
		return true
	})
}
