//go:build race

package service

// raceEnabled gates the test that compares wall times.
const raceEnabled = true
