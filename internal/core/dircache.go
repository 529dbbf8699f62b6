package core

import (
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
//     (segDesc): its PM address, its split claim and its filter mirror
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
// Open and Create build the cache with one O(directory) pass over the PM
// directory (cacheRebuild) — the only time it is read; nothing about the
// cache is persisted.
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
	// (Create, Open) — rare, but registered the same way for uniformity.
	// All three live in the table's obs.Registry (initObs) under
	// dircache.* names.
	hits     *obs.Counter
	misses   *obs.Counter
	rebuilds *obs.Counter

	// descs owns the descriptors, one per segment a PM directory has named,
	// so every entry of a segment shares one. Rebuild and publish only.
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
	seg      pmem.Addr
	rec      atomic.Uint32 // first-touch recovery claim after Open (lazyrec.go); 0 = recovered
	splitter atomic.Bool   // split ownership (split.go): set from the claim until the publish is written through

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

// descFor returns the descriptor of a segment the PM directory names,
// creating it (mirror-less) the first time the address is seen. Create and
// Open only: single-threaded.
func (t *Table) descFor(seg pmem.Addr) *segDesc {
	d := t.cache.descs[seg]
	if d == nil {
		d = &segDesc{seg: seg}
		t.cache.descs[seg] = d
	}
	return d
}

// cacheRebuild reconstructs the whole view from the PM directory in one
// O(directory) pass: Create and Open, single-threaded, are its only callers
// and the only readers of the PM directory.
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

// cacheRepair is what an operation does after its route failed a claim
// check: the route was loaded before some publish or doubling wrote the view
// through, or while one still is — a publish narrows the old segment's
// mirrored claim before it writes the view entries, both under dirMu. Taking
// dirMu waits out the one in flight; the caller then routes again from the
// current view, which write-through has made right. Pure DRAM: nothing here
// reads the PM directory, which only a rebuild does.
func (t *Table) cacheRepair(parts hashfn.Parts) {
	t.fr.Record(obs.EvRouteRepair, obs.TagNone, parts.Hash, 0)
	t.dirMu.Lock()
	t.dirMu.Unlock() // the wait is the whole repair
}

// cachePublishSplit write-through: mirror a completed split of the entry
// range [start, start+span) — lower half keeps old, upper half routes to its
// sibling, from here on a directory-named segment. The caller holds dirMu
// and every bucket lock of old.seg, so this lands before any writer can
// observe the post-split segment metadata.
func (t *Table) cachePublishSplit(sib *segDesc, start, span uint64) {
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
