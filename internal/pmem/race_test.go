//go:build race

package pmem

// raceEnabled gates the tests that put an upper bound on wall time.
const raceEnabled = true
