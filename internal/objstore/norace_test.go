//go:build !race

package objstore_test

// raceAllocSlack is zero without the race detector (see race_test.go).
const raceAllocSlack = 0
