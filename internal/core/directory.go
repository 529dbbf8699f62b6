package core

import (
	"dash/internal/pmem"
)

// Directory layer (§4.3, §4.7). The directory is one PM block: a header
// cacheline holding the global depth, followed by 2^depth segment pointers.
// It is the crash-consistent source of truth for routing — written through
// on every split publish and doubling, read back by recovery — but it is
// not the hot path: operations route through the DRAM-resident mirror in
// dircache.go and consult this block only to repair a stale route or, on
// lock-free paths, to validate one (writers check their locked segment's
// mirrored claim instead: Table.lockOwner).
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

// dirInitFresh formats a directory block over the given segments and
// persists it.
func dirInitFresh(p *pmem.Pool, dir pmem.Addr, depth uint8, segs []pmem.Addr) {
	p.StoreU64(dir.Add(dirOffDepth), uint64(depth))
	for i, s := range segs {
		dirStoreEntry(p, dir, uint64(i), s)
	}
	p.Persist(dir, dirSize(depth))
}

// dirInitDoubled formats newDir as oldDir with depth+1: every old entry is
// duplicated so each segment initially covers twice the entries, leaving
// every segment's local depth unchanged. Persists the whole block; the
// caller then flips the root pointer.
func dirInitDoubled(p *pmem.Pool, newDir, oldDir pmem.Addr) {
	depth := dirDepth(p, oldDir)
	p.StoreU64(newDir.Add(dirOffDepth), uint64(depth)+1)
	n := uint64(1) << depth
	for i := uint64(0); i < n; i++ {
		seg := dirLoadEntry(p, oldDir, i)
		dirStoreEntry(p, newDir, 2*i, seg)
		dirStoreEntry(p, newDir, 2*i+1, seg)
	}
	p.Persist(newDir, dirSize(depth+1))
}

// dirCoverage returns the contiguous entry range [start, start+span) that a
// segment with the given local depth and pattern owns under global depth.
func dirCoverage(global, local uint8, pattern uint64) (start, span uint64) {
	shift := uint(global - local)
	return pattern << shift, uint64(1) << shift
}
