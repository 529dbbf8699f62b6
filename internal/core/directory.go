package core

import (
	"dash/internal/pmem"
)

// Directory layer (§4.3, §4.7). The directory is one PM block: a header
// cacheline holding the global depth, followed by 2^depth segment pointers.
// It is the crash-consistent source of truth for routing — written through
// on every split publish and doubling, read back by Create and recovery —
// but a running table never reads it: operations route, validate and repair
// through the DRAM-resident view in dircache.go, and a doubling copies the
// entries from that view.
// Indexing uses the hash's most-significant bits, so all entries covering
// one segment are contiguous — the property that lets a split publish its
// new segment by flipping the upper half of a contiguous entry range, and
// lets recovery re-derive every segment's coverage from the directory alone.
//
// The global depth lives inside the block rather than in the table root so
// that doubling is a single atomic root-pointer flip: the new block (new
// depth + duplicated entries) is fully persisted before the root's dirAddr
// is switched, making the depth and the entries change together or not at
// all across a crash.
const (
	dirHeaderSize = 64
	dirOffDepth   = 0
)

func dirSize(depth uint8) uint64 {
	return dirHeaderSize + uint64(8)<<depth
}

func dirDepth(p *pmem.Pool, dir pmem.Addr) uint8 {
	return uint8(p.LoadU64(dir.Add(dirOffDepth)))
}

func dirEntryAddr(dir pmem.Addr, idx uint64) pmem.Addr {
	return dir.Add(dirHeaderSize + 8*idx)
}

func dirLoadEntry(p *pmem.Pool, dir pmem.Addr, idx uint64) pmem.Addr {
	return pmem.Addr(p.LoadU64(dirEntryAddr(dir, idx)))
}

func dirStoreEntry(p *pmem.Pool, dir pmem.Addr, idx uint64, seg pmem.Addr) {
	p.StoreU64(dirEntryAddr(dir, idx), uint64(seg))
}

// dirInit formats a fresh directory block — its depth and, per entry, the
// segment seg names — and persists it; the caller then flips the root
// pointer to it. Nothing can reach the block before that flip, so its
// stores are quiet: the flush that publishes its lines is their charge, the
// tree's rule for an unpublished block (segInit, a split's sibling).
func dirInit(p *pmem.Pool, dir pmem.Addr, depth uint8, seg func(i uint64) pmem.Addr) {
	p.QuietStoreU64(dir.Add(dirOffDepth), uint64(depth))
	for i := uint64(0); i < 1<<depth; i++ {
		p.QuietStoreU64(dirEntryAddr(dir, i), uint64(seg(i)))
	}
	p.Persist(dir, dirSize(depth))
}

// dirCoverage returns the contiguous entry range [start, start+span) that a
// segment with the given local depth and pattern owns under global depth.
func dirCoverage(global, local uint8, pattern uint64) (start, span uint64) {
	shift := uint(global - local)
	return pattern << shift, uint64(1) << shift
}
