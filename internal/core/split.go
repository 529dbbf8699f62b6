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
// of the split and tell it nothing — the bucket versions they bump anyway
// carry the one bit it needs. The owner:
//
//  1. allocates and initializes the sibling, and persists the split-progress
//     marker (sibling address | in-flight bit) into oldSeg's header — the
//     point from which a crash rolls back by clearing the marker;
//  2. copies the sibling's half of the records holding no lock of oldSeg
//     (splitCopy) — readers and writers of all 66 buckets proceed —
//     remembering the version each bucket was snapshotted under;
//  3. publishes (splitPublish): the only stop-the-world step — under all
//     bucket locks the copy is accepted if no bucket's version has moved and
//     redone under the locks otherwise, the sibling is persisted with one
//     flush+fence, the directory entries flip (doubling first if needed,
//     both under dirMu), oldSeg's metadata bumps and its moved records are
//     swept with one persist per bucket, and the directory cache is written
//     through.
//
// A crash before the first entry flip leaves the sibling unpublished:
// recovery clears the marker and the block leaks. A crash after it leaves
// the directory image authoritative: recovery completes the flips, fixes
// metadata and sweeps duplicates exactly as under the old protocol.
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
	if t.hookAfterMarker != nil {
		t.hookAfterMarker()
	}

	mstart := obs.Now()
	sc := splitScanPool.Get().(*splitScan)
	defer splitScanPool.Put(sc)
	copied := t.splitCopy(old, sib, l, sc, false)
	t.met.splitMigrateNS.Record(obs.Now() - mstart)
	t.fr.Record(obs.EvSplitMigrate, obs.TagNone, uint64(oldSeg), uint64(newSeg))
	return t.splitPublish(old, sib, l, pat, sc, copied)
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
// for the publish: per bucket the seqlock version its snapshot was stable
// under — the copy stands iff every bucket reads ver[bi]+1 once the publish
// holds the locks (+1 for the publish's own lock) — and per normal bucket the
// bitmap of moved (sibling-claimed) slots, which the sweep then drops without
// re-reading a record.
//
// Instances are pooled: a split allocates nothing steady-state, so the
// resize path adds no GC pressure (on small-core boxes, GC mark assists
// were showing up as multi-ms latency outliers dwarfing the splits
// themselves). The buffers are arrays sized for a full segment, so an
// instance the pool dropped costs one allocation to replace, not a regrowth.
type splitScan struct {
	ver     [totalBuckets]uint64
	moved   [normalBuckets]uint64
	n       int // cand[:n] holds the scan's finds
	cand    [slotsPerSegment]splitCand
	grouped [slotsPerSegment]splitCand
}

var splitScanPool = sync.Pool{New: func() any { return new(splitScan) }}

// splitCand is one sibling-claimed record the scan found: its two words as
// snapshotted, its hash parts (read from the record words; the scan never
// dereferences blobs, which is what keeps split cost independent of record
// size) and its place in the copy order — the destination home bucket, or
// for a stash record its source bucket, which sorts after every home.
type splitCand struct {
	kv    pmem.KV
	rp    hashfn.Parts
	group int
}

// splitCopy builds the sibling's half of old in the private sibling. Each of
// the 66 source buckets is snapshotted from old's mirror seqlock-style (stable
// version across the scan, like a reader's mirBucketSearch; splitScan keeps
// the version) — the copy reads no PM line of old — and the sibling-claimed
// records are inserted — normal-bucket records grouped by destination home
// pair, then stash records in slot order — taking no
// sibling lock, nobody else can reach it, and persisting nothing: the publish
// makes the whole sibling durable with one flush+fence before any directory
// entry points at it, and a crash before that rolls it back wholesale.
//
// It runs first with no lock of old held (locked = false), writers mutating
// old underneath it, so its result is only a candidate: splitPublish accepts
// it iff no bucket's version moved. That is proof enough. Every mutation of a
// segment holds the key's home-pair locks from before its first store to
// after its last, so a bucket whose version reads ver+1 under the publish's
// lock was neither locked nor changed since its snapshot — with one
// exception that the scan order closes: a stash record is updated in place
// under its *home* pair's locks, not the stash bucket's. The stash buckets
// are therefore snapshotted last: an update later than the stash snapshot is
// later than its home bucket's too, and moves that version. An untouched
// version vector thus means the 66 snapshots were all of one state, the one
// the publish has frozen.
//
// Otherwise splitPublish wipes the sibling and runs this again under all of
// old's locks (locked = true: versions are odd, and stable by construction),
// which is the paper's split. The version it validates against is the lock
// word itself (bucket.go), so there is no second counter to keep in step with
// the locks: "no writer held this bucket since the snapshot" and "the version
// reads ver+1 under my lock" are one fact. Reports false when the sibling has
// no room for a record. From the locked run that is the pathological one-sided overflow;
// an unlocked run can see a record mid-displacement twice, so there it only
// means this copy failed.
func (t *Table) splitCopy(old, sib *segDesc, l uint8, sc *splitScan, locked bool) bool {
	oldSeg, newSeg := old.seg, sib.seg
	oldMir, newMir := t.mirror(old), sib.mir.Load()

	// Scan. It never mutates the old segment.
	sc.n = 0
	for bi := 0; bi < totalBuckets; bi++ {
		ver := oldMir.word(bi, mirBkVersion)
		for {
			v := ver.Load()
			if v&1 != 0 && !locked {
				runtime.Gosched()
				continue
			}
			m := oldMir.word(bi, mirBkMeta).Load()
			n0 := sc.n
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
			if ver.Load() == v {
				sc.ver[bi] = v
				if bi < normalBuckets {
					sc.moved[bi] = moved
				}
				break
			}
			sc.n = n0 // torn snapshot; rescan this bucket
		}
	}

	// Copy, in group order (a stable counting sort: within a group records
	// keep their scan order, bucket then slot).
	cand := sc.cand[:sc.n]
	var cnt [totalBuckets + 1]int
	for _, c := range cand {
		cnt[c.group+1]++
	}
	for g := 1; g <= totalBuckets; g++ {
		cnt[g] += cnt[g-1]
	}
	grouped := sc.grouped[:sc.n]
	pos := cnt
	for _, c := range cand {
		grouped[pos[c.group]] = c
		pos[c.group]++
	}
	for g := 0; g < totalBuckets; g++ {
		for _, c := range grouped[cnt[g]:cnt[g+1]] {
			if !t.segInsertLocked(newMir, newSeg, c.rp, c.kv, true) {
				return false
			}
		}
		if t.hookMidMigrate != nil {
			t.hookMidMigrate(oldSeg, sib, g)
		}
	}
	return true
}

// splitPublish is the split's only stop-the-world step, and it is short:
// every bucket lock of oldSeg is taken (excluding writers and spinning out
// optimistic readers), the unlocked copy is validated against the bucket
// versions — and redone here, under the locks, if a writer got in its way —
// the finished sibling becomes durable with a single whole-segment
// flush+fence, the directory entries flip under dirMu (doubling first when
// the segment's depth has caught up with the global depth), oldSeg's
// metadata bumps together with the marker clear in one header persist, the
// moved records are swept with one persist per touched bucket, and the DRAM
// directory cache is written through — only then do the locks release. The
// stall this window causes is accumulated in split.stall_ns.
func (t *Table) splitPublish(old, sib *segDesc, l uint8, pat uint64, sc *splitScan, copied bool) error {
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

	for bi := 0; copied && bi < totalBuckets; bi++ {
		copied = oldMir.word(bi, mirBkVersion).Load() == sc.ver[bi]+1
	}
	if !copied {
		// A writer touched old during the copy (or the copy ran out of
		// room on a torn view). Start the sibling over and copy the state
		// the locks now freeze; only this run's "no room" is the truth.
		t.met.splitRecopies.Inc()
		segInit(p, newSeg, l+1, pat<<1|1)
		newMir := sib.mir.Load()
		for i := range newMir.w {
			newMir.w[i].Store(0)
		}
		if !t.splitCopy(old, sib, l, sc, true) {
			t.splitRollback(old, sib)
			return ErrSegmentOverflow
		}
	}

	// One flush+fence for the whole sibling replaces per-record persists.
	segPersist(p, newSeg)
	if t.hookAfterSegPersist != nil {
		t.hookAfterSegPersist()
	}

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
		old, oldSize := dir, dirSize(g)
		t.em.Retire(func() { t.freePush(old, oldSize) })
		dir = newDir
		g++
		t.cacheDouble(newDir)
		t.fr.Record(obs.EvDirDouble, obs.TagNone, uint64(g), 0)
	}

	estart, span := dirCoverage(g, l, pat)
	half := span >> 1
	for i := estart + half; i < estart+span; i++ {
		dirStoreEntry(p, dir, i, newSeg)
		p.Persist(dirEntryAddr(dir, i), 8)
		if t.hookMidPublish != nil && i == estart+half {
			t.hookMidPublish()
		}
	}
	if t.hookAfterPublish != nil {
		t.hookAfterPublish()
	}
	t.fr.Record(obs.EvSplitPublish, obs.TagNone, uint64(oldSeg), uint64(newSeg))

	// Metadata bump and marker clear share the header line and persist
	// once. The directory already routes the moved half to the sibling, so
	// from here a crash rolls forward through recovery's directory-driven
	// reconciliation.
	p.StoreU64(oldSeg.Add(segOffSplit), 0)
	segSetMeta(p, oldSeg, l+1, pat<<1)
	oldMir.setClaim(l+1, pat<<1)
	// The copy this publish accepted (or made) snapshotted the frozen state,
	// so its moved-slot bitmaps are exact: normal buckets sweep by bitmap
	// alone, and only the stash is re-read (each stash drop needs the
	// record's hash to fix its home bucket's overflow tracking).
	segSweepBatched(p, oldMir, oldSeg, t.seed, func(rp hashfn.Parts, _ pmem.KV) bool {
		return rp.DepthBit(l)
	}, sc.moved[:], t.hookMidSweep)
	t.fr.Record(obs.EvSplitSweep, obs.TagNone, uint64(oldSeg), uint64(time.Since(begin).Nanoseconds()))
	// Write-through before the deferred bucket unlocks: once writers can
	// get past the locks, the cache already routes the moved half to
	// newSeg. The split claim (split) is released after both.
	t.cachePublishSplit(sib, estart, span)
	t.met.splits.Inc()
	return nil
}
