//go:build linux

package pmem

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"unsafe"
)

// madvCollapse is MADV_COLLAPSE (Linux 6.1), which package syscall does not
// name.
const madvCollapse = 25

// THPMode is the kernel's transparent huge page mode, the bracketed word of
// /sys/kernel/mm/transparent_hugepage/enabled: "always", "madvise", or
// "never" (also when the file is missing).
var THPMode = sync.OnceValue(func() string {
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

// AdviseHugePages puts every 2 MiB region the Go memory b overlaps on
// transparent huge pages, in one pass when b is made: the simulated PM
// arena (NewPool) and each segment's DRAM mirror (core's newMirror) call it,
// so neither adds a host TLB walk of 4 KiB pages to the accesses it serves.
// b must be zero and not yet shared: one store of a zero byte per region,
// at the region's first byte inside b, faults an unmapped region in as a
// huge page, and MADV_COLLAPSE turns the regions the heap had already
// mapped in 4 KiB pages into huge pages (regions already huge stay as they
// are). Neither a fault nor a collapse changes what memory holds, so the
// parts of a region outside b — other objects, or free heap — keep their
// bytes.
//
// The regions reach past b, so they go to madvise as integers, and no Go
// pointer is ever made outside b (a slice reaching past its object is a bad
// pointer to the collector); b is kept alive across the calls instead.
//
// In "madvise" mode the pass is bracketed: MADV_HUGEPAGE first, and
// MADV_NOHUGEPAGE to withdraw it, so no heap range stays advised once b is
// freed and the heap's later small allocations there fault 4 KiB pages,
// not 2 MiB ones. MADV_NOHUGEPAGE is not the same as no advice: it sets
// VM_NOHUGEPAGE, and a later MADV_COLLAPSE of the range fails until the
// range is advised MADV_HUGEPAGE again. A mirror's regions may overlap a
// freed arena's, or another mirror's, so in that mode every call advises
// before it collapses. A kernel with THP off, an empty b, or an madvise
// that fails leaves the memory as the heap gave it (a kernel without
// MADV_COLLAPSE: the regions the heap had mapped in 4 KiB pages).
func AdviseHugePages(b []byte) {
	mode := THPMode()
	if mode == "never" || len(b) == 0 {
		return
	}
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo, hi := hugeRegions(start, uintptr(len(b)))
	if mode == "madvise" && madvise(lo, hi-lo, syscall.MADV_HUGEPAGE) != nil {
		return
	}
	for r := lo; r < hi; r += hugePageSize {
		b[max(r, start)-start] = 0
	}
	_ = madvise(lo, hi-lo, madvCollapse)
	if mode == "madvise" {
		_ = madvise(lo, hi-lo, syscall.MADV_NOHUGEPAGE)
	}
	runtime.KeepAlive(b)
}

// madvise advises the address span [addr, addr+n), which may hold Go
// memory that is not the caller's.
func madvise(addr, n uintptr, advice int) error {
	if _, _, e := syscall.Syscall(syscall.SYS_MADVISE, addr, n, uintptr(advice)); e != 0 {
		return e
	}
	return nil
}

// AnonHugeBytes reads /proc/self/smaps and returns how many bytes of the
// address ranges (each a [lo, hi) pair) it shows on transparent huge pages:
// per mapping, its AnonHugePages capped at the bytes of the ranges inside
// the mapping. smaps counts a mapping's huge pages, not where they sit, so
// the figure is an upper bound, exact where the mappings hold nothing but
// the ranges. The page-advice tests' probe.
func AnonHugeBytes(ranges [][2]uintptr) (uint64, error) {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var total, overlap uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var s, e uintptr
		var kb uint64
		// A mapping's header line opens with "lo-hi"; its fields' lines
		// with "Name:".
		if f := strings.Fields(line); len(f) > 0 && !strings.HasSuffix(f[0], ":") {
			overlap = 0
			if _, err := fmt.Sscanf(f[0], "%x-%x", &s, &e); err == nil {
				for _, r := range ranges {
					if r[0] < e && r[1] > s {
						overlap += uint64(min(e, r[1]) - max(s, r[0]))
					}
				}
			}
			continue
		}
		if _, err := fmt.Sscanf(line, "AnonHugePages: %d kB", &kb); err == nil && overlap > 0 {
			total += min(kb<<10, overlap)
		}
	}
	return total, sc.Err()
}
