//go:build linux

package pmem

import (
	"os"
	"strings"
	"sync"
	"syscall"
	"unsafe"
)

const (
	// hugePageSize is the transparent huge page size on x86-64 and arm64
	// with 4 KiB base pages.
	hugePageSize = 2 << 20
	// madvCollapse is MADV_COLLAPSE (Linux 6.1), which package syscall
	// does not name.
	madvCollapse = 25
)

// thpMode is the kernel's transparent huge page mode, the bracketed word of
// /sys/kernel/mm/transparent_hugepage/enabled: "always", "madvise", or
// "never" (also when the file is missing).
var thpMode = sync.OnceValue(func() string {
	b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err == nil {
		for _, m := range []string{"always", "madvise"} {
			if strings.Contains(string(b), "["+m+"]") {
				return m
			}
		}
	}
	return "never"
})

// adviseHugePages puts the 2 MiB-aligned interior of the arena b on
// transparent huge pages, in one pass at creation: one store per 2 MiB
// faults each unmapped block in as a huge page, and MADV_COLLAPSE turns the
// blocks the Go heap had already mapped in 4 KiB pages (memory a freed
// small-object span or a freed pool left behind) into huge pages, leaving
// blocks that already are huge alone. In "madvise" mode MADV_HUGEPAGE
// brackets the pass and MADV_NOHUGEPAGE withdraws it (equal to no advice in
// that mode), so no heap range stays advised once its arena is freed: the
// heap's later small allocations there fault 4 KiB pages, not 2 MiB ones.
// The arena is zero when it is made, and neither a fault nor a collapse
// changes what it holds. A pool that spans no aligned 2 MiB, a kernel with
// THP off, or an madvise that fails leaves the arena as the heap gave it
// (a kernel without MADV_COLLAPSE: its 4 KiB blocks).
func adviseHugePages(b []byte) {
	mode := thpMode()
	if mode == "never" {
		return
	}
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := (start + hugePageSize - 1) &^ (hugePageSize - 1)
	hi := (start + uintptr(len(b))) &^ (hugePageSize - 1)
	if hi <= lo {
		return
	}
	in := b[lo-start : hi-start]
	if mode == "madvise" {
		if syscall.Madvise(in, syscall.MADV_HUGEPAGE) != nil {
			return
		}
		defer syscall.Madvise(in, syscall.MADV_NOHUGEPAGE)
	}
	for off := 0; off < len(in); off += hugePageSize {
		in[off] = 0
	}
	_ = syscall.Madvise(in, madvCollapse)
}
