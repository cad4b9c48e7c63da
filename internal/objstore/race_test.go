//go:build race

package objstore_test

// raceAllocSlack widens the decoders' allocation bounds under the race
// detector, where sync.Pool drops entries at random and fmt's buffers
// for an error message miss the pool: one byte refused as wire type 3
// took 552 bytes in 102 of 132,000 measured decodes, and 760 at worst,
// against 184 without the detector.
const raceAllocSlack = 512
