//go:build !linux

package pmem

// THPMode reports "never": page advice is Linux-only.
func THPMode() string { return "never" }

// AdviseHugePages leaves b as the heap gave it: page advice is Linux-only.
func AdviseHugePages([]byte) {}
