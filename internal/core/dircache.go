package core

import (
	"sync"
	"sync/atomic"

	"dash/internal/hashfn"
	"dash/internal/obs"
	"dash/internal/pmem"
)

// DRAM-resident directory cache. The PM directory block (directory.go) stays
// the crash-consistent source of truth, but a running table never reads it:
// every Get/Insert/Delete/Update used to pay three charged PM reads (root
// pointer, directory depth, directory entry) plus two more for the
// segment-header pattern check before touching a single bucket. All of that
// state is reconstructible, so — following the paper's goal of a probe
// costing ~one segment access (§4.3, §4.7) — a dirCache mirrors it in
// ordinary Go memory:
//
//   - the global depth and the mirrored directory block's address,
//   - one pointer per directory entry, to the segment's DRAM descriptor
//     (segDesc): its PM address, its owner lock and its filter mirror
//     (segfilter.go), which carries the segment's (local depth, pattern).
//     One load of the entry therefore yields the segment and everything
//     DRAM knows about it, and a reader touches only lines no operation
//     writes outside a split's publish.
//
// The view is the runtime truth of routing, as the mirror is of the buckets:
// operations route through it, splits take the directory's address and
// depth from it, a doubling copies its entries from it, and a stale route is
// repaired from it (cacheRepair); the PM block only takes the stores.
// Coherence is write-through: split publish and directory doubling update
// the view under dirMu before the splitting segment's bucket locks are
// released, so a route is stale only while a structural change is in flight
// or was loaded before one. Correctness never depends on that freshness — a
// stale route can only produce a failed claim check. Writers lock the key's
// bucket pair in the routed segment and check that segment's mirrored header
// claims the key (Table.lockOwner; the mirror hangs off the descriptor the
// route returned). Readers, holding no lock, trust a miss only if the
// mirrored claim covers the key and the route did not move across the probe;
// a seqlock-stable positive hit is valid wherever the route came from,
// because a key's record is physically present only in segments the
// directory routes it to, the copy/sweep window of a split being covered by
// the segment's bucket locks. A failed check waits out the publish via
// cacheRepair and retries. The cache only ever holds segments a PM directory
// named — the writers' check relies on it: a leaked split sibling's header
// claims too.
//
// Create and Open install the view from the directory entries they hold —
// the ones Create just wrote, the ones Open's reconcile just read and fixed
// (setView) — so no pass re-reads the PM directory to build it; nothing
// about the cache is persisted. The view is the table's only index of
// segments: a segment's descriptor is whatever its entries hold.
type dirCache struct {
	// view is an immutable-shape snapshot: the entries slice is fixed at
	// 2^depth and only ever swapped wholesale (setView, doubling). Entry
	// values mutate in place through the atomics.
	view atomic.Pointer[dirView]

	// hits counts writers' routes that served their operation (the locked
	// segment's mirrored claim confirmed them); misses counts writers' stale
	// routes that forced a repair + retry. A read's route is metered with
	// its probe, once, in segFilters' hits and misses, and
	// TableStats.DirCacheHits / DirCacheMisses read both tiers' sums. Both
	// are goroutine-sharded obs.Counters so the every-operation increment
	// cannot make one counter cacheline a table-wide hotspot at real
	// thread counts. Both live in the table's obs.Registry (initObs) under
	// dircache.* names.
	hits   *obs.Counter
	misses *obs.Counter
}

type dirView struct {
	depth   uint8
	dir     pmem.Addr // the PM directory block this view mirrors
	entries []atomic.Pointer[segDesc]
}

// segDesc is the DRAM descriptor of one segment, permanent for the segment's
// address: every view entry covering the segment points at the same object,
// so whoever routed to the segment, whenever, reads the same mirror.
type segDesc struct {
	seg pmem.Addr

	// owner is held by whoever does the segment's structural work: its
	// first touch after Open (lazyrec.go) or a split, from its claim until
	// the publish is written through (split.go). Operations never take it.
	owner sync.Mutex

	// mir is the segment's filter mirror, never replaced once set.
	// Invariant: a descriptor an operation has routed to and gated has a
	// mirror. Create and a split store it before the descriptor is
	// reachable; after Open it is nil exactly until the segment's first-touch
	// recovery, which stores it last, so operations fetch it through
	// Table.mirror, which runs that recovery. There is no mirror-less read or
	// write path.
	mir atomic.Pointer[segMirror]
}

// route returns the descriptor cached for the key's directory slot. Pure
// DRAM: no PM traffic, no locks, no stores. The result may be stale while a
// split or doubling is in flight; callers validate before trusting it.
func (c *dirCache) route(parts hashfn.Parts) *segDesc {
	v := c.view.Load()
	return v.entries[parts.DirIndex(v.depth)].Load()
}

// eachSegment calls fn once per distinct segment the view names.
func (v *dirView) eachSegment(fn func(*segDesc)) {
	seen := make(map[*segDesc]bool)
	for i := range v.entries {
		if d := v.entries[i].Load(); !seen[d] {
			seen[d] = true
			fn(d)
		}
	}
}

// setView installs the view of directory block dir at depth, whose entry i
// names segment seg(i): one new, mirror-less descriptor per distinct segment,
// shared by every entry that names it. The entries of a segment are one
// contiguous run (Create writes one entry per segment; Open has checked each
// coverage). It returns the descriptors in first-entry order. Create and Open
// only: single-threaded, and the entries come from the caller, not from PM.
func (t *Table) setView(dir pmem.Addr, depth uint8, seg func(i uint64) pmem.Addr) []*segDesc {
	n := uint64(1) << depth
	v := &dirView{depth: depth, dir: dir, entries: make([]atomic.Pointer[segDesc], n)}
	var descs []*segDesc
	var d *segDesc
	for i := uint64(0); i < n; i++ {
		if s := seg(i); d == nil || d.seg != s {
			d = &segDesc{seg: s}
			descs = append(descs, d)
		}
		v.entries[i].Store(d)
	}
	t.cache.view.Store(v)
	return descs
}

// cacheRepair is what an operation does after its route failed a claim
// check: the route was loaded before some publish or doubling wrote the view
// through, or while one still is — a publish narrows the old segment's
// mirrored claim before it writes the view entries, both under dirMu. Taking
// dirMu waits out the one in flight; the caller then routes again from the
// current view, which write-through has made right. Pure DRAM: nothing here
// reads the PM directory.
func (t *Table) cacheRepair(parts hashfn.Parts) {
	t.fr.Record(obs.EvRouteRepair, obs.TagNone, parts.Hash, 0)
	t.dirMu.Lock()
	t.dirMu.Unlock() // the wait is the whole repair
}

// cachePublishSplit write-through: mirror a completed split of the entry
// range [start, start+span) — lower half keeps old, upper half routes to its
// sibling, from here on a directory-named segment whose descriptor the view's
// entries hold. The caller holds dirMu
// and every bucket lock of old.seg, so this lands before any writer can
// observe the post-split segment metadata.
func (t *Table) cachePublishSplit(sib *segDesc, start, span uint64) {
	v := t.cache.view.Load()
	for i := start + span>>1; i < start+span; i++ {
		v.entries[i].Store(sib)
	}
}

// cacheDouble write-through: install the doubled view right after the PM
// root pointer flipped to newDir. Every old entry is duplicated (doubling
// changes no segment's coverage). The caller holds dirMu.
func (t *Table) cacheDouble(newDir pmem.Addr) {
	old := t.cache.view.Load()
	n := uint64(len(old.entries))
	v := &dirView{depth: old.depth + 1, dir: newDir, entries: make([]atomic.Pointer[segDesc], 2*n)}
	for i := uint64(0); i < n; i++ {
		d := old.entries[i].Load()
		v.entries[2*i].Store(d)
		v.entries[2*i+1].Store(d)
	}
	t.cache.view.Store(v)
}
