package core

// CheckFacts exposes the fact-table reconciliation (obs_test.go) to the
// external test package's reservation and differential suites.
var CheckFacts = checkFacts
