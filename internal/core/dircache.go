package core

import (
	"sync/atomic"

	"dash/internal/hashfn"
	"dash/internal/obs"
	"dash/internal/pmem"
)

// DRAM-resident directory cache. The PM directory block (directory.go) stays
// the crash-consistent source of truth, but on the hot paths it is pure
// overhead: every Get/Insert/Delete/Update used to pay three charged PM reads
// (root pointer, directory depth, directory entry) plus two more for the
// segment-header pattern check before touching a single bucket. All of that
// state is reconstructible, so — following the paper's goal of a probe
// costing ~one segment access (§4.3, §4.7) — a dirCache mirrors it in
// ordinary Go memory:
//
//   - the global depth and the mirrored directory block's address,
//   - one pointer per directory entry, to the segment's DRAM descriptor
//     (segDesc): its PM address, its local depth (the pattern needs no slot
//     of its own: pattern = entryIndex >> (global − local)) and its filter
//     mirror (segfilter.go). One load of the entry therefore yields the
//     segment and everything DRAM knows about it, and a reader touches only
//     lines no operation writes outside a split's publish.
//
// Operations route through the cache first and touch PM metadata only to
// validate a route or repair it (cacheRepair). Coherence is write-through:
// split publish and directory doubling update the cache under dirMu before
// the splitting segment's bucket locks are released, so the cache is stale
// only while a structural change is in flight. Correctness never depends on
// that freshness — a stale route can only produce a failed validation.
// Writers lock the key's bucket pair in the routed segment and check that
// segment's mirrored header claims the key (Table.lockOwner; the mirror hangs
// off the descriptor the route returned): no PM read at all. Readers, holding
// no lock, re-check against the PM directory and the segment's PM header
// (validateRoute) before trusting a miss DRAM cannot vouch for; a
// seqlock-stable positive hit is valid wherever the route came from, because
// a key's record is physically present only in segments the directory routes
// it to, the copy/sweep window of a split being covered by the segment's
// bucket locks. A failed validation refreshes the route via cacheRepair and
// retries. The cache only ever holds segments a PM directory named — the
// writers' check relies on it: a leaked split sibling's header claims too.
//
// Open and Create build the cache with one O(directory) pass; nothing about
// it is persisted.
type dirCache struct {
	// view is an immutable-shape snapshot: the entries slice is fixed at
	// 2^depth and only ever swapped wholesale (doubling, rebuild). Entry
	// values mutate in place through the atomics.
	view atomic.Pointer[dirView]

	// hits counts routes that served their operation (a read answered in
	// DRAM, a writer's route its locked segment's mirrored claim confirmed);
	// misses counts stale routes that forced a repair + retry. Both are
	// goroutine-sharded obs.Counters so the every-operation increment
	// cannot make one counter cacheline a table-wide hotspot at real
	// thread counts. rebuilds counts full O(directory) reconstructions
	// (Create, Open, and the belt-and-braces depth-mismatch path of
	// cacheRepair) — rare, but registered the same way for uniformity.
	// All three live in the table's obs.Registry (initObs) under
	// dircache.* names.
	hits     *obs.Counter
	misses   *obs.Counter
	rebuilds *obs.Counter

	// descs owns the descriptors, one per segment a PM directory has named,
	// so a repaired or rebuilt view hands out the object in-flight operations
	// already hold. Rebuild, repair and publish only, under dirMu.
	descs map[pmem.Addr]*segDesc
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
	seg   pmem.Addr
	depth atomic.Uint32 // local depth; stored by a split publish under all of seg's bucket locks
	rec   atomic.Uint32 // first-touch recovery claim after Open (lazyrec.go); 0 = recovered

	// mir is the segment's filter mirror, never replaced once set — repairs
	// rewrite the object in place. Invariant: a descriptor an operation has
	// routed to and gated has a mirror. Create and a split store it before
	// the descriptor is reachable; after Open it is nil exactly until the
	// segment's first-touch recovery, which stores it last, so operations
	// fetch it through Table.mirror, which runs that recovery. There is no
	// mirror-less read or write path.
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

// descFor returns the descriptor of a segment the PM directory names,
// creating it (mirror-less, depth from the segment header) the first time
// the address is seen. Caller holds dirMu or is single-threaded.
func (t *Table) descFor(seg pmem.Addr) *segDesc {
	d := t.cache.descs[seg]
	if d == nil {
		d = &segDesc{seg: seg}
		d.depth.Store(uint32(segDepth(t.pool, seg)))
		t.cache.descs[seg] = d
	}
	return d
}

// cacheRebuild reconstructs the whole view from the PM directory in one
// O(directory) pass — the Open/Create path, and the recovery path for a view
// that no longer matches the PM directory's shape. Single-threaded callers
// (Create, recover) call it directly; concurrent callers must hold dirMu
// so the swap cannot race a doubling.
func (t *Table) cacheRebuild() {
	p := t.pool
	dir := pmem.Addr(p.LoadU64(rootAddr.Add(rootOffDir)))
	depth := dirDepth(p, dir)
	n := uint64(1) << depth
	v := &dirView{depth: depth, dir: dir, entries: make([]atomic.Pointer[segDesc], n)}
	for i := uint64(0); i < n; i++ {
		v.entries[i].Store(t.descFor(dirLoadEntry(p, dir, i)))
	}
	t.cache.view.Store(v)
	t.cache.rebuilds.Inc()
}

// cacheRepair refreshes the key's route from the PM directory after a failed
// validation. It serializes on dirMu so it cannot race the write-through
// of an in-flight split publish or doubling (and taking the mutex also means
// a repair naturally waits out the directory change that made the route
// stale). If the view no longer mirrors the current directory block — which
// write-through should make impossible, but a cache poisoned by a bug or a
// test must still heal — the whole view is rebuilt.
func (t *Table) cacheRepair(parts hashfn.Parts) {
	t.dirMu.Lock()
	defer t.dirMu.Unlock()
	t.fr.Record(obs.EvRouteRepair, obs.TagNone, parts.Hash, 0)
	p := t.pool
	v := t.cache.view.Load()
	dir := pmem.Addr(p.LoadU64(rootAddr.Add(rootOffDir)))
	if dir != v.dir || dirDepth(p, dir) != v.depth {
		t.cacheRebuild()
		return
	}
	idx := parts.DirIndex(v.depth)
	d := t.descFor(dirLoadEntry(p, dir, idx))
	d.depth.Store(uint32(segDepth(p, d.seg)))
	v.entries[idx].Store(d)
}

// cachePublishSplit write-through: mirror a completed split of the entry
// range [start, start+span) — lower half keeps old, upper half routes to its
// sibling, from here on a directory-named segment; both are now at newLocal.
// The caller holds dirMu and every bucket lock of old.seg, so this lands
// before any operation can observe the post-split segment metadata.
func (t *Table) cachePublishSplit(old, sib *segDesc, newLocal uint8, start, span uint64) {
	old.depth.Store(uint32(newLocal))
	t.cache.descs[sib.seg] = sib
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
