package core

import (
	"math/bits"
	"time"

	"dash/internal/hashfn"
	"dash/internal/obs"
	"dash/internal/pmem"
)

// split replaces oldSeg by two segments of local depth+1 with bounded
// stalls. It holds the segment's owner lock (segDesc.owner) from its claim
// until the publish has written the view through: splits of distinct
// segments run in parallel, and a second claimant of the same segment waits
// the first out and then reads the published claim. From the claim to the
// publish the owner is the only goroutine that reads or writes the sibling;
// writers of oldSeg know nothing of the split and tell it nothing. The owner:
//
//  1. allocates and initializes the sibling, persisting nothing;
//  2. under all of oldSeg's bucket locks, copies the sibling's half of the
//     records into the sibling (splitCopy) — the paper's split;
//  3. publishes (splitPublish), still under those locks: the sibling is
//     persisted with one flush+fence, the directory entries flip (doubling
//     first if needed, both under dirMu), oldSeg's metadata bumps, its moved
//     records are dropped from its mirror — PM keeps each, stale, until an
//     insert reuses its slot (segDrop) — and the directory cache is written
//     through.
//
// A crash's outcome is the directory's (Table.recoverLazy): before the first
// entry flip no entry names the sibling, so the old segment keeps everything
// and the block leaks; after it, recovery completes the flips and narrows
// the old header, and first touch drops the moved records' leftovers by
// route — the same filter that drops them after a clean shutdown, since the
// publish never removes them from PM.
func (t *Table) split(parts hashfn.Parts, old *segDesc) error {
	p, oldSeg, oldMir := t.pool, old.seg, t.mirror(old)
	t.fr.Record(obs.EvSplitTrigger, obs.TagNone, uint64(oldSeg), 0)
	old.owner.Lock()
	defer old.owner.Unlock()
	// We own the segment. Between the failed insert that brought us here and
	// the claim, a finished split may have relocated the key range or made
	// room; re-check cheaply, in DRAM, and decline if so: the previous owner
	// released the lock only after writing its publish through, so the
	// mirrored claim and bitmaps read here are the published ones.
	b, b2 := homePair(parts)
	if !mirClaims(oldMir, parts) || bucketFreeSlots(oldMir, b) > 0 || bucketFreeSlots(oldMir, b2) > 0 {
		return nil
	}
	t.fr.Record(obs.EvSplitClaim, obs.TagNone, uint64(oldSeg), 0)
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
	// cachePublishSplit hands them to the view. Every record the copy places
	// writes through, so the mirror is complete at publish time with no
	// rebuild pass.
	sib := &segDesc{seg: newSeg}
	sib.mir.Store(t.newMirror(l+1, pat<<1|1))
	return t.splitPublish(old, sib, l, pat)
}

// splitRollback abandons an unpublished split: the sibling's block goes back
// to the allocator. Only this split ever held the sibling's address — no
// directory entry, no cache entry, no other goroutine — so the block is
// reusable at once, and a split that keeps failing (a pool with no room for
// the doubled directory) costs one block, not one per retry.
func (t *Table) splitRollback(old, sib *segDesc) {
	t.freePush(sib.seg, segmentSize)
	t.filters.bytes.Add(^(segMirrorBytes - 1))
	t.fr.Record(obs.EvSplitRollback, obs.TagNone, uint64(old.seg), uint64(sib.seg))
}

// splitCopy builds the sibling's half of old in the private sibling. The
// caller holds every bucket lock of old, so its mirror is frozen: one scan
// reads each bucket's records from the mirror — no PM line of old — in
// bucket-then-slot order, stash buckets last, and places each
// sibling-claimed record into the sibling as soon as it finds it
// (splitPlace). The record's hash parts come from its words (recSplitParts):
// the copy never dereferences a blob, so its cost is independent of record
// size. Each moved slot is set in moved (per bucket, a slot bitmap), which
// the publish's drop clears from old's mirror. Reports false when the sibling
// has no room for a record: the pathological one-sided overflow.
func (t *Table) splitCopy(old, sib *segDesc, l uint8, moved *[totalBuckets]uint64) bool {
	oldMir, newMir := t.mirror(old), sib.mir.Load()
	for bi := 0; bi < totalBuckets; bi++ {
		for used := oldMir.word(bi, mirBkMeta).Load() & slotMask; used != 0; used &= used - 1 {
			slot := bits.TrailingZeros64(used)
			kv := oldMir.rec(bi, slot)
			rp := recSplitParts(kv, t.seed)
			if !rp.DepthBit(l) {
				continue
			}
			if !splitPlace(t.pool, newMir, sib.seg, rp, kv) {
				return false
			}
			moved[bi] |= 1 << uint(slot)
		}
	}
	return true
}

// splitPlace puts a moved record into the unpublished sibling where an
// insert into it would (segPlace): the emptier bucket of its pair, home on
// ties, else the first stash bucket with room, counted in its home's mirror.
// Only the split's owner can reach the sibling, so it takes no lock. Unlike
// segPlace it does not try displacement, which needs both buckets of a pair
// full: in a sibling that receives about half of a full segment, the stash
// takes that rare record instead. It persists nothing: the publish makes the
// whole sibling durable with one flush+fence before any directory entry
// points at it, and a crash before that rolls it back wholesale. Reports
// false when no bucket has room.
func splitPlace(p *pmem.Pool, mir *segMirror, seg pmem.Addr, parts hashfn.Parts, kv pmem.KV) bool {
	home, b2 := homePair(parts)
	bi := home
	if bucketFreeSlots(mir, b2) > bucketFreeSlots(mir, home) {
		bi = b2
	}
	slot := metaFirstFree(mir.word(bi, mirBkMeta).Load())
	for j := normalBuckets; slot < 0 && j < totalBuckets; j++ {
		bi, slot = j, metaFirstFree(mir.word(j, mirBkMeta).Load())
	}
	if slot < 0 {
		return false
	}
	bucketPut(p, mir, seg, bi, slot, parts.FP, kv)
	if bi >= normalBuckets {
		bucketAddStash(mir, home, +1)
	}
	return true
}

// splitPublish is the split's only stop-the-world step: every bucket lock of
// oldSeg is taken (excluding writers and spinning out optimistic readers),
// the sibling's half is copied (splitCopy) — its one failure, a sibling with
// no room, rolls the split back — the finished sibling becomes durable with a
// single whole-segment flush+fence, the directory entries flip under dirMu
// (doubling first when the segment's depth has caught up with the global
// depth), oldSeg's metadata bumps in one header persist, the moved records
// are dropped from oldSeg's mirror — a DRAM-only sweep that stores nothing to oldSeg's buckets (segDrop) — and the
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
	var moved [totalBuckets]uint64
	if !t.splitCopy(old, sib, l, &moved) {
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
		// directory are Open's reconcile and the quiescent Verify, which read
		// the block the root names.
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

	// The directory already routes the moved half to the sibling, so from
	// here a crash rolls forward through recovery's directory-driven
	// reconciliation.
	segSetMeta(p, oldSeg, l+1, pat<<1)
	oldMir.setClaim(l+1, pat<<1)
	// The copy scanned the state the locks froze, so its moved-slot bitmaps
	// are exact: the drop clears them from the mirror alone and re-reads only
	// the stash records (each needs its hash to decrement its home bucket's
	// stash count). PM keeps the moved records under their bits: the
	// directory already routes them to the sibling, and recovery drops them by
	// route on whatever image it opens.
	segDrop(oldMir, t.seed, &moved)
	t.fr.Record(obs.EvSplitSweep, obs.TagNone, uint64(oldSeg), uint64(time.Since(begin).Nanoseconds()))
	// Write-through before the deferred bucket unlocks: once writers can
	// get past the locks, the cache already routes the moved half to
	// newSeg. The owner lock (split) is released after both.
	t.cachePublishSplit(sib, estart, span)
	t.met.splits.Inc()
	return nil
}
