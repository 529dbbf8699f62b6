package core

import (
	"runtime"
	"sync"
	"time"

	"dash/internal/hashfn"
	"dash/internal/obs"
	"dash/internal/pmem"
)

// split replaces oldSeg by two segments of local depth+1 with bounded
// stalls. Ownership is claimed by CAS on the segment's DRAM descriptor
// (per-segment: splits of distinct segments run in parallel; a loser waits
// the winner out and retries its operation) and released only once the
// publish has written the view through, so the next owner reads the claim
// this split published. From the claim to the publish the owner is the only
// goroutine that reads or writes the sibling; writers of oldSeg know nothing
// of the split and tell it nothing. The owner:
//
//  1. allocates and initializes the sibling, and persists the split-progress
//     marker (sibling address | in-flight bit) into oldSeg's header — the
//     point from which a crash rolls back by clearing the marker;
//  2. under all of oldSeg's bucket locks, copies the sibling's half of the
//     records into the sibling (splitCopy) — the paper's split;
//  3. publishes (splitPublish), still under those locks: the sibling is
//     persisted with one flush+fence, the directory entries flip (doubling
//     first if needed, both under dirMu), oldSeg's metadata bumps, its moved
//     records are dropped from its mirror — PM keeps each, stale, until an
//     insert reuses its slot (segDrop) — and the directory cache is written
//     through.
//
// A crash before the first entry flip leaves the sibling unpublished:
// recovery clears the marker and the block leaks. A crash after it leaves
// the directory image authoritative: recovery completes the flips and fixes
// metadata, and first touch drops the moved records' leftovers by route —
// the same filter that drops them after a clean shutdown, since the publish
// never removes them from PM.
func (t *Table) split(parts hashfn.Parts, old *segDesc) error {
	p, oldSeg, oldMir := t.pool, old.seg, t.mirror(old)
	t.fr.Record(obs.EvSplitTrigger, obs.TagNone, uint64(oldSeg), 0)
	if !old.splitter.CompareAndSwap(false, true) {
		// Another goroutine owns this segment's split. Wait it out (no
		// locks held here); the caller revalidates its route and retries.
		for old.splitter.Load() {
			runtime.Gosched()
		}
		return nil
	}
	defer old.splitter.Store(false)
	// We own the split. Between the failed insert that brought us here and
	// the claim, a finished split may have relocated the key range or made
	// room; re-check cheaply, in DRAM, and decline if so: the previous owner
	// released the claim only after writing its publish through, so the
	// mirrored claim and bitmaps read here are the published ones.
	b, b2 := homePair(parts)
	if !mirClaims(oldMir, parts) || bucketFreeSlots(oldMir, b) > 0 || bucketFreeSlots(oldMir, b2) > 0 {
		return nil
	}
	t.fr.Record(obs.EvSplitCAS, obs.TagNone, uint64(oldSeg), 0)
	// Only a publish changes a segment's claim, and this segment's next
	// publish is ours.
	l, pat := uint8(oldMir.depth.Load()), oldMir.pattern.Load()

	newSeg, err := t.alloc(segmentSize)
	if err != nil {
		t.fr.Record(obs.EvSplitRollback, obs.TagNone, uint64(oldSeg), 0)
		return err
	}
	segInit(p, newSeg, l+1, pat<<1|1)
	// The sibling's descriptor and mirror are as private as its block until
	// cachePublishSplit hands them to the view. Every insert of the copy
	// writes through, so the mirror is complete at publish time with no
	// rebuild pass.
	sib := &segDesc{seg: newSeg}
	sib.mir.Store(t.newMirror(l+1, pat<<1|1))

	spa := oldSeg.Add(segOffSplit)
	p.StoreU64(spa, uint64(newSeg)|splitStateInFlight)
	p.Persist(spa, 8)
	return t.splitPublish(old, sib, l, pat)
}

// splitRollback abandons an unpublished split: the marker is cleared and the
// sibling's block goes back to the allocator. Only this split ever held the
// sibling's address — no directory entry, no cache entry, no other goroutine
// — so the block is reusable at once, and a split that keeps failing (a pool
// with no room for the doubled directory) costs one block, not one per retry.
func (t *Table) splitRollback(old, sib *segDesc) {
	spa := old.seg.Add(segOffSplit)
	t.pool.StoreU64(spa, 0)
	t.pool.Persist(spa, 8)
	t.freePush(sib.seg, segmentSize)
	t.filters.bytes.Add(^(segMirrorBytes - 1))
	t.fr.Record(obs.EvSplitRollback, obs.TagNone, uint64(old.seg), uint64(sib.seg))
}

// splitScan is what splitCopy's scan of the old segment's mirror learned, kept
// for the publish: per bucket the bitmap of moved (sibling-claimed) slots,
// which the publish's drop then clears without re-reading a normal record.
//
// Instances are pooled: a split allocates nothing steady-state, so the
// resize path adds no GC pressure (on small-core boxes, GC mark assists
// were showing up as multi-ms latency outliers dwarfing the splits
// themselves). The buffers are arrays sized for a full segment, so an
// instance the pool dropped costs one allocation to replace, not a regrowth.
type splitScan struct {
	moved   [totalBuckets]uint64
	n       int // cand[:n] holds the scan's finds
	cand    [slotsPerSegment]splitCand
	grouped [slotsPerSegment]splitCand
}

var splitScanPool = sync.Pool{New: func() any { return new(splitScan) }}

// splitCand is one sibling-claimed record the scan found: its two words as
// scanned, its hash parts (read from the record words; the scan never
// dereferences blobs, which is what keeps split cost independent of record
// size) and its place in the copy order — the destination home bucket, or
// for a stash record its source bucket, which sorts after every home.
type splitCand struct {
	kv    pmem.KV
	rp    hashfn.Parts
	group int
}

// splitCopy builds the sibling's half of old in the private sibling. The
// caller holds every bucket lock of old, so its mirror is frozen: the scan
// reads each bucket's records from the mirror — no PM line of old — and the
// sibling-claimed records are inserted — normal-bucket records grouped by
// destination home pair, then stash records in slot order — taking no
// sibling lock, nobody else can reach it, and persisting nothing: the publish
// makes the whole sibling durable with one flush+fence before any directory
// entry points at it, and a crash before that rolls it back wholesale.
// Reports false when the sibling has no room for a record: the pathological
// one-sided overflow.
func (t *Table) splitCopy(old, sib *segDesc, l uint8, sc *splitScan) bool {
	oldMir, newMir := t.mirror(old), sib.mir.Load()

	// Scan. It never mutates the old segment.
	sc.n = 0
	for bi := 0; bi < totalBuckets; bi++ {
		m := oldMir.word(bi, mirBkMeta).Load()
		moved := uint64(0)
		for slot := 0; slot < slotsPerBucket; slot++ {
			if !metaSlotUsed(m, slot) {
				continue
			}
			kv := oldMir.rec(bi, slot)
			rp := recSplitParts(kv, t.seed)
			if rp.DepthBit(l) {
				moved |= 1 << uint(slot)
				group := bi
				if bi < normalBuckets {
					group = int(rp.BucketIndex(bucketBits))
				}
				sc.cand[sc.n] = splitCand{kv: kv, rp: rp, group: group}
				sc.n++
			}
		}
		sc.moved[bi] = moved
	}

	// Copy, in group order (a stable counting sort: within a group records
	// keep their scan order, bucket then slot).
	cand := sc.cand[:sc.n]
	var pos [totalBuckets + 1]int
	for _, c := range cand {
		pos[c.group+1]++
	}
	for g := 1; g <= totalBuckets; g++ {
		pos[g] += pos[g-1]
	}
	grouped := sc.grouped[:sc.n]
	for _, c := range cand {
		grouped[pos[c.group]] = c
		pos[c.group]++
	}
	for _, c := range grouped {
		if !t.segInsertLocked(newMir, sib.seg, c.rp, c.kv, true) {
			return false
		}
	}
	return true
}

// splitPublish is the split's only stop-the-world step: every bucket lock of
// oldSeg is taken (excluding writers and spinning out optimistic readers),
// the sibling's half is copied (splitCopy) — its one failure, a sibling with
// no room, rolls the split back — the finished sibling becomes durable with a
// single whole-segment flush+fence, the directory entries flip under dirMu
// (doubling first when the segment's depth has caught up with the global
// depth), oldSeg's metadata bumps together with the marker clear in one
// header persist, the moved records are dropped from oldSeg's mirror — a
// DRAM-only sweep that stores nothing to oldSeg's buckets (segDrop) — and the
// DRAM directory cache is written through — only then do the locks release.
// The stall this window causes is accumulated in split.stall_ns.
func (t *Table) splitPublish(old, sib *segDesc, l uint8, pat uint64) error {
	p, oldSeg, newSeg := t.pool, old.seg, sib.seg
	oldMir := t.mirror(old)
	begin := time.Now()
	for i := 0; i < totalBuckets; i++ {
		t.lockBucket(oldMir, i)
	}
	defer func() {
		for i := 0; i < totalBuckets; i++ {
			unlockBucket(oldMir, i)
		}
		stall := time.Since(begin).Nanoseconds()
		t.met.splitStallNS.Add(uint64(stall))
		t.met.splitPublishStallNS.Record(stall)
	}()

	mstart := obs.Now()
	sc := splitScanPool.Get().(*splitScan)
	defer splitScanPool.Put(sc)
	if !t.splitCopy(old, sib, l, sc) {
		t.splitRollback(old, sib)
		return ErrSegmentOverflow
	}
	t.met.splitMigrateNS.Record(obs.Now() - mstart)
	t.fr.Record(obs.EvSplitMigrate, obs.TagNone, uint64(oldSeg), uint64(newSeg))

	// One flush+fence for the whole sibling replaces per-record persists.
	segPersist(p, newSeg)

	// The view is the directory's runtime copy, exact under dirMu: the
	// publish reads the block's address and depth there, and a doubling
	// copies its entries from there into the new block.
	t.dirMu.Lock()
	defer t.dirMu.Unlock()
	v := t.cache.view.Load()
	dir, g := v.dir, v.depth
	if l == g {
		newDir, err := t.alloc(dirSize(g + 1))
		if err != nil {
			t.splitRollback(old, sib) // nothing is published yet
			return err
		}
		// Every entry duplicated: each segment initially covers twice the
		// entries, and no local depth changes.
		dirInit(p, newDir, g+1, func(i uint64) pmem.Addr { return v.entries[i>>1].Load().seg })
		p.StoreU64(rootAddr.Add(rootOffDir), uint64(newDir))
		p.Persist(rootAddr.Add(rootOffDir), 8)
		// The old block is free at once: no operation loads a PM directory
		// entry — routes come from the view — and the only readers of the PM
		// directory are cacheRebuild (Create, Open) and the quiescent Verify,
		// which read the block the root names.
		t.freePush(dir, dirSize(g))
		dir = newDir
		g++
		t.cacheDouble(newDir)
		t.fr.Record(obs.EvDirDouble, obs.TagNone, uint64(g), 0)
	}

	estart, span := dirCoverage(g, l, pat)
	for i := estart + span>>1; i < estart+span; i++ {
		dirStoreEntry(p, dir, i, newSeg)
		p.Persist(dirEntryAddr(dir, i), 8)
	}
	t.fr.Record(obs.EvSplitPublish, obs.TagNone, uint64(oldSeg), uint64(newSeg))

	// Metadata bump and marker clear share the header line and persist
	// once. The directory already routes the moved half to the sibling, so
	// from here a crash rolls forward through recovery's directory-driven
	// reconciliation.
	p.StoreU64(oldSeg.Add(segOffSplit), 0)
	segSetMeta(p, oldSeg, l+1, pat<<1)
	oldMir.setClaim(l+1, pat<<1)
	// The copy scanned the state the locks froze, so its moved-slot bitmaps
	// are exact: the drop clears them from the mirror alone and re-reads only
	// the stash records (each needs its hash to decrement its home bucket's
	// stash count). PM keeps the moved records under their bits: the
	// directory already routes them to the sibling, and recovery drops them by
	// route on whatever image it opens.
	segDrop(oldMir, t.seed, &sc.moved)
	t.fr.Record(obs.EvSplitSweep, obs.TagNone, uint64(oldSeg), uint64(time.Since(begin).Nanoseconds()))
	// Write-through before the deferred bucket unlocks: once writers can
	// get past the locks, the cache already routes the moved half to
	// newSeg. The split claim (split) is released after both.
	t.cachePublishSplit(sib, estart, span)
	t.met.splits.Inc()
	return nil
}
