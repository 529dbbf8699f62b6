package pmem

import (
	"sync/atomic"
	"unsafe"
)

// hugePageSize is the transparent huge page size on x86-64 and arm64 with
// 4 KiB base pages.
const hugePageSize = 2 << 20

// hugeRegions returns the span [lo, hi) of the 2 MiB-aligned regions the
// byte range [start, start+n) overlaps — from the region holding its first
// byte to the end of the region holding its last — and lo == hi for an empty
// range. The span reaches past the range on both sides unless its ends are
// 2 MiB-aligned, so it is an address span, never a slice: Go memory outside
// the range may belong to other objects, or to none.
func hugeRegions(start, n uintptr) (lo, hi uintptr) {
	if n == 0 {
		return start, start
	}
	lo = start &^ (hugePageSize - 1)
	hi = (start + n + hugePageSize - 1) &^ (hugePageSize - 1)
	return lo, hi
}

// HugePageAdvice is AdviseHugePages for a stream of small objects — a
// table's mirrors, about a hundred to a 2 MiB region: it remembers the
// region its last call advised, and skips the advice for an object that
// lies within that region, which the last call already put on a huge page.
// Two callers racing may both advise a region; a repeated advice is
// harmless. The zero value is ready to use.
type HugePageAdvice struct {
	last atomic.Uintptr // the first byte of the region advised last; 0 for none
}

// Advise calls AdviseHugePages(b) unless b lies within the one 2 MiB
// region the previous call advised. b must be zero and not yet shared.
func (h *HugePageAdvice) Advise(b []byte) {
	lo, hi := hugeRegions(uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)))
	if hi-lo == hugePageSize && h.last.Load() == lo {
		return
	}
	AdviseHugePages(b)
	if hi-lo == hugePageSize {
		h.last.Store(lo)
	}
}
