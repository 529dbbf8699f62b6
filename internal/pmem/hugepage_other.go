//go:build !linux

package pmem

// adviseHugePages leaves the arena as the heap gave it: page advice is
// Linux-only.
func adviseHugePages([]byte) {}
