//go:build race

package epoch

// raceEnabled gates the test that compares wall times.
const raceEnabled = true
