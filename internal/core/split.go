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
// stalls. Ownership is claimed by CAS on the segment's split-state word
// (per-segment: splits of distinct segments run in parallel; a loser waits
// the winner out and retries its operation). The owner then:
//
//  1. allocates and initializes the sibling, and persists the split-progress
//     marker (sibling address | in-flight bit) into oldSeg's header — the
//     point from which a crash rolls back by clearing the marker;
//  2. migrates the sibling's half of the records one bucket at a time under
//     that bucket's version lock (splitMigrate) — readers and writers on
//     the other 65 buckets proceed, and writers mirror sibling-claimed
//     mutations into the sibling themselves (assist*);
//  3. publishes (splitPublish): the only stop-the-world step — under all
//     bucket locks the sibling is persisted with one flush+fence, the
//     directory entries flip (doubling first if needed, both under dirMu),
//     oldSeg's metadata bumps and its moved records are swept with one
//     persist per bucket, and the directory cache is written through.
//
// A crash before the first entry flip leaves the sibling unpublished:
// recovery clears the marker and the block leaks. A crash after it leaves
// the directory image authoritative: recovery completes the flips, fixes
// metadata and sweeps duplicates exactly as under the old protocol.
func (t *Table) split(parts hashfn.Parts, old *segDesc) error {
	p, oldSeg := t.pool, old.seg
	t.fr.Record(obs.EvSplitTrigger, obs.TagNone, uint64(oldSeg), 0)
	spa := oldSeg.Add(segOffSplit)
	if !p.CompareAndSwapU64(spa, 0, splitStateInFlight) {
		// Another goroutine owns this segment's split. Wait it out (no
		// locks held here); the caller revalidates its route and retries.
		for p.QuietLoadU64(spa)&splitStateInFlight != 0 {
			runtime.Gosched()
		}
		return nil
	}
	// We own the split. Between the failed insert that brought us here and
	// the claim, a finished split may have relocated the key range or made
	// room; re-check cheaply and release the claim if so. The claim value
	// is transient (never persisted): recovery clears markers wholesale.
	b, b2 := homePair(parts)
	if t.resolve(parts) != oldSeg ||
		bucketFreeSlots(p, segBucket(oldSeg, b)) > 0 ||
		bucketFreeSlots(p, segBucket(oldSeg, b2)) > 0 {
		p.StoreU64(spa, 0)
		return nil
	}
	t.fr.Record(obs.EvSplitCAS, obs.TagNone, uint64(oldSeg), 0)
	l, pat := segMeta(p, oldSeg)

	newSeg, err := t.alloc(segmentSize)
	if err != nil {
		p.StoreU64(spa, 0)
		t.fr.Record(obs.EvSplitRollback, obs.TagNone, uint64(oldSeg), 0)
		return err
	}
	segInit(p, newSeg, l+1, pat<<1|1)
	// The sibling's descriptor and mirror must hang off old before the marker
	// publishes the sibling to assisting writers: from the first assist on,
	// every sibling mutation writes through, so the mirror is complete at
	// publish time with no rebuild pass.
	sib := &segDesc{seg: newSeg}
	sib.depth.Store(uint32(l + 1))
	sib.mir.Store(t.newMirror(l+1, pat<<1|1))
	old.sib.Store(sib)

	// Snapshot the assist counter before the marker becomes visible: any
	// assist that could race the copy loop bumps it past a0, which is what
	// tells splitMigrate it must probe for duplicates.
	a0 := t.splitAssists.Load()
	p.StoreU64(spa, uint64(newSeg)|splitStateInFlight)
	p.Persist(spa, 8)
	if t.hookAfterMarker != nil {
		t.hookAfterMarker()
	}

	mstart := obs.Now()
	sc, ok := t.splitMigrate(old, sib, l, a0)
	t.met.splitMigrateNS.Record(obs.Now() - mstart)
	defer splitScanPool.Put(sc)
	if !ok {
		t.splitRollback(old, sib) // pathological one-sided overflow
		return ErrSegmentOverflow
	}
	t.fr.Record(obs.EvSplitMigrate, obs.TagNone, uint64(oldSeg), uint64(newSeg))
	return t.splitPublish(old, sib, l, pat, sc)
}

// splitRollback abandons an unpublished split by clearing the marker. The
// sibling is leaked rather than reused — an assisting writer that read the
// marker just before the clear may still be writing into it under its bucket
// locks, and through the mirror it fetched, which absorbs those stores
// harmlessly: nothing routes to the leaked segment, and a writer that looks
// for the sibling after the clear finds none (splitSibling).
func (t *Table) splitRollback(old, sib *segDesc) {
	old.sib.Store(nil) // before the marker clear lets the next split claim old
	spa := old.seg.Add(segOffSplit)
	t.pool.StoreU64(spa, 0)
	t.pool.Persist(spa, 8)
	t.filters.bytes.Add(^(segMirrorBytes - 1))
	t.fr.Record(obs.EvSplitRollback, obs.TagNone, uint64(old.seg), uint64(sib.seg))
}

// splitMigrate copies every record the sibling claims from oldSeg into the
// unpublished newSeg, one bucket at a time under that bucket's version lock
// — the low-stall replacement for freezing all 66 buckets at once. Normal
// buckets are consistent under their own lock (every mutation of a record
// in bucket bi holds bi's lock). Stash records are guarded by their *home*
// bucket's lock instead, so the stash pass locks each record's home pair
// and re-verifies the slot under it. Copies are not persisted individually:
// the publish step makes the whole sibling durable with one flush+fence
// before any directory entry points at it, and a crash before that rolls
// the sibling back wholesale.
//
// a0 is the split-assist counter snapshot from before the marker was
// published: while the counter still equals a0 no writer can have mirrored
// an op into any sibling, and the copy loop skips the duplicate probe.
// Returns false on pathological one-sided overflow.
// splitScan is what splitMigrate's optimistic source scan learned, reused
// by the publish to sweep without re-reading records: per normal bucket the
// seqlock version the stable scan observed and the bitmap of moved
// (sibling-claimed) slots. A bucket whose version at publish time differs
// from ver[bi]+1 (+1 for the publish's own lock) was mutated after the scan
// and is re-scanned; the rest sweep by bitmap alone.
//
// Instances are pooled: a split allocates nothing steady-state, so the
// resize path adds no GC pressure (on small-core boxes, GC mark assists
// were showing up as multi-ms latency outliers dwarfing the splits
// themselves).
type splitScan struct {
	ver     [normalBuckets]uint64
	moved   [normalBuckets]uint64
	cand    []splitCand
	grouped []splitCand
	known   [totalBuckets]uint64
	kvalid  [totalBuckets]bool
	keyBuf  []byte // scratch for duplicate probes on indirect records
}

var splitScanPool = sync.Pool{New: func() any { return new(splitScan) }}

// splitCand is one sibling-claimed record the scan found: where it lives in
// the old segment (for the locked re-verify), its word 0 as scanned (the
// record's physical identity — an inline key or a packed blob address) and
// its hash parts (read from the record words; the scan never dereferences
// blobs, which is what keeps split cost independent of record size).
type splitCand struct {
	w0   uint64
	rec  pmem.Addr // record address in the old segment
	meta pmem.Addr // its bucket's meta word
	slot int
	home int
	rp   hashfn.Parts
}

func (t *Table) splitMigrate(old, sib *segDesc, l uint8, a0 uint64) (*splitScan, bool) {
	p, oldSeg, newSeg := t.pool, old.seg, sib.seg
	oldMir, newMir := t.mirror(old), t.mirror(sib)

	// Phase 1 — optimistic scan, no locks: migration never mutates the old
	// segment, so each bucket is snapshotted seqlock-style (stable version
	// across the scan, like mirBucketSearch). The whole segment is charged
	// as one streaming read up front — a sequential sweep of its lines,
	// exactly what the hardware prefetcher would serve — and the per-word
	// loads are quiet (one-charge-per-line).
	p.TouchRead(oldSeg, segmentSize)
	sc := splitScanPool.Get().(*splitScan)
	sc.cand = sc.cand[:0]
	for bi := 0; bi < normalBuckets; bi++ {
		ba := segBucket(oldSeg, bi)
		va := ba.Add(bkOffVersion)
		for {
			v := p.QuietLoadU64(va)
			if v&1 != 0 {
				runtime.Gosched()
				continue
			}
			m := p.QuietLoadU64(ba.Add(bkOffMeta))
			n0 := len(sc.cand)
			moved := uint64(0)
			for slot := 0; slot < slotsPerBucket; slot++ {
				if !metaSlotUsed(m, slot) {
					continue
				}
				ra := recordAddr(ba, slot)
				w0 := p.QuietLoadU64(ra)
				rp := hashfn.Split(recHash(pmem.KV{Key: w0, Value: p.QuietLoadU64(ra.Add(8))}, t.seed))
				if rp.DepthBit(l) {
					moved |= 1 << uint(slot)
					sc.cand = append(sc.cand, splitCand{
						w0: w0, rec: ra, meta: ba.Add(bkOffMeta),
						slot: slot, home: int(rp.BucketIndex(bucketBits)), rp: rp,
					})
				}
			}
			if p.QuietLoadU64(va) == v {
				sc.ver[bi], sc.moved[bi] = v, moved
				break
			}
			sc.cand = sc.cand[:n0] // torn snapshot; rescan this bucket
		}
	}

	// Phase 2 — copy, grouped by destination home pair, under the sibling's
	// pair locks only. The protocol needs no old-segment locks: every
	// sibling-claimed mutation mirrors itself into the sibling under these
	// same locks (assist*), so re-verifying the source slot while holding
	// them is race-free — a slot that still carries the key cannot lose it
	// until we unlock, and one that changed was handled by its writer's
	// assist. Copies are not persisted individually; the publish makes the
	// whole sibling durable with one flush+fence.
	var cnt [normalBuckets + 1]int
	for _, c := range sc.cand {
		cnt[c.home+1]++
	}
	for h := 1; h <= normalBuckets; h++ {
		cnt[h] += cnt[h-1]
	}
	if cap(sc.grouped) < len(sc.cand) {
		sc.grouped = make([]splitCand, len(sc.cand))
	}
	grouped := sc.grouped[:len(sc.cand)]
	pos := cnt
	for _, c := range sc.cand {
		grouped[pos[c.home]] = c
		pos[c.home]++
	}
	for h := 0; h < normalBuckets; h++ {
		if cnt[h+1] > cnt[h] {
			h2 := (h + 1) % normalBuckets
			lockPair(p, newMir, newSeg, h, h2)
			for _, c := range grouped[cnt[h]:cnt[h+1]] {
				// Re-verify under the sibling lock; both loads share lines
				// the scan already charged. Identity is the scanned word 0
				// for inline records; for indirect records it is the stored
				// hash — a copy-on-write update flips word 0 to a new blob
				// but keeps the hash, and copying the *current* words below
				// picks up exactly that freshest blob.
				w0 := p.QuietLoadU64(c.rec)
				w1 := p.QuietLoadU64(c.rec.Add(8))
				if !metaSlotUsed(p.QuietLoadU64(c.meta), c.slot) || !recSameIdentity(c.w0, w0, w1, c.rp.Hash) {
					continue // deleted or replaced; its writer's assist covered the sibling
				}
				// Freshest value: an update between scan and copy either
				// already landed (read here) or will assist after we unlock.
				kv := pmem.KV{Key: w0, Value: w1}
				if t.splitAssists.Load() != a0 {
					var pk probeKey
					pk, sc.keyBuf = probeOfRecord(t.vlog, kv, c.rp, sc.keyBuf)
					if _, dup := segFindLocked(p, t.vlog, newSeg, &pk); dup {
						continue
					}
				}
				if !segInsertLocked(p, newMir, newSeg, c.rp, kv, false, t.seed) {
					unlockPair(p, newMir, newSeg, h, h2)
					return sc, false
				}
			}
			unlockPair(p, newMir, newSeg, h, h2)
		}
		if t.hookMidMigrate != nil {
			t.hookMidMigrate(oldSeg, h)
		}
	}

	// Phase 3 — stash records; these mutate under their home bucket's lock,
	// so each is copied under its old-segment home pair plus the sibling
	// pair (this is the one place migration still takes old-segment locks,
	// bounded by the stash's 28 slots).
	for j := 0; j < stashBuckets; j++ {
		sa := segBucket(oldSeg, normalBuckets+j)
		for slot := 0; slot < slotsPerBucket; slot++ {
			if !t.splitCopyStashSlot(oldMir, newMir, oldSeg, newSeg, sa, slot, l, a0) {
				return sc, false
			}
		}
		if t.hookMidMigrate != nil {
			t.hookMidMigrate(oldSeg, normalBuckets+j)
		}
	}
	return sc, true
}

// splitCopyStashSlot migrates one stash slot of oldSeg. Stash records
// mutate only under their home bucket's lock, so the slot's key is read
// optimistically, its home pair locked, and the slot re-verified under the
// locks; a slot that changed identity in between is retried with the new
// key (bounded in practice: slots change only while writers win the race).
// Loads are quiet: splitMigrate's whole-segment TouchRead streamed these
// lines microseconds earlier in this same split.
func (t *Table) splitCopyStashSlot(oldMir, newMir *segMirror, oldSeg, newSeg, sa pmem.Addr, slot int, l uint8, a0 uint64) bool {
	p := t.pool
	for {
		m := p.QuietLoadU64(sa.Add(bkOffMeta))
		if !metaSlotUsed(m, slot) {
			return true
		}
		kv0 := p.QuietReadKV(recordAddr(sa, slot))
		rp := recSplitParts(kv0, t.seed)
		hb, hb2 := homePair(rp)
		lockPair(p, oldMir, oldSeg, hb, hb2)
		m = p.QuietLoadU64(sa.Add(bkOffMeta))
		kv := p.QuietReadKV(recordAddr(sa, slot))
		if !metaSlotUsed(m, slot) || !recSameIdentity(kv0.Key, kv.Key, kv.Value, rp.Hash) {
			unlockPair(p, oldMir, oldSeg, hb, hb2)
			continue
		}
		ok := true
		if rp.DepthBit(l) {
			lockPair(p, newMir, newSeg, hb, hb2)
			dup := false
			if t.splitAssists.Load() != a0 {
				pk, _ := probeOfRecord(t.vlog, kv, rp, nil)
				_, dup = segFindLocked(p, t.vlog, newSeg, &pk)
			}
			if !dup {
				ok = segInsertLocked(p, newMir, newSeg, rp, kv, false, t.seed)
			}
			unlockPair(p, newMir, newSeg, hb, hb2)
		}
		unlockPair(p, oldMir, oldSeg, hb, hb2)
		return ok
	}
}

// splitPublish is the split's only stop-the-world step, and it is short:
// every bucket lock of oldSeg is taken (excluding writers and spinning out
// optimistic readers), the finished sibling becomes durable with a single
// whole-segment flush+fence, the directory entries flip under dirMu
// (doubling first when the segment's depth has caught up with the global
// depth), oldSeg's metadata bumps together with the marker clear in one
// header persist, the moved records are swept with one persist per touched
// bucket, and the DRAM directory cache is written through — only then do
// the locks release. The stall this window causes is accumulated in
// splitStallNS.
func (t *Table) splitPublish(old, sib *segDesc, l uint8, pat uint64, sc *splitScan) error {
	p, oldSeg, newSeg := t.pool, old.seg, sib.seg
	oldMir := t.mirror(old)
	begin := time.Now()
	for i := 0; i < totalBuckets; i++ {
		lockBucket(p, oldMir, segBucket(oldSeg, i), i)
	}
	defer func() {
		for i := 0; i < totalBuckets; i++ {
			unlockBucket(p, oldMir, segBucket(oldSeg, i), i)
		}
		stall := time.Since(begin).Nanoseconds()
		t.splitStallNS.Add(stall)
		t.met.splitPublishStallNS.Record(stall)
	}()

	// All writers are excluded now (assists run under bucket locks), so the
	// sibling is finished and this one flush+fence replaces the per-record
	// persists of the old copy loop.
	segPersist(p, newSeg)
	if t.hookAfterSegPersist != nil {
		t.hookAfterSegPersist()
	}

	t.dirMu.Lock()
	defer t.dirMu.Unlock()

	dir := pmem.Addr(p.LoadU64(rootAddr.Add(rootOffDir)))
	g := dirDepth(p, dir)
	if l == g {
		newDir, err := t.alloc(dirSize(g + 1))
		if err != nil {
			t.splitRollback(old, sib) // nothing is published yet
			return err
		}
		dirInitDoubled(p, newDir, dir)
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
	// reconciliation. The sibling link goes first: once the marker reads
	// clear the next split may claim oldSeg and hang its own sibling there.
	old.sib.Store(nil)
	p.StoreU64(oldSeg.Add(segOffSplit), 0)
	segSetMeta(p, oldMir, oldSeg, l+1, pat<<1)
	// Sweep by the scan's moved-slot bitmaps wherever the bucket's seqlock
	// version proves it unchanged since the scan (+1 is our own lock);
	// mutated buckets and the stash are re-scanned.
	for bi := 0; bi < totalBuckets; bi++ {
		sc.kvalid[bi] = bi < normalBuckets &&
			p.QuietLoadU64(segBucket(oldSeg, bi).Add(bkOffVersion)) == sc.ver[bi]+1
		if sc.kvalid[bi] {
			sc.known[bi] = sc.moved[bi]
		}
	}
	segSweepBatched(p, oldMir, oldSeg, t.seed, func(rp hashfn.Parts, _ pmem.KV) bool {
		return rp.DepthBit(l)
	}, sc.known[:], sc.kvalid[:], t.hookMidSweep)
	t.fr.Record(obs.EvSplitSweep, obs.TagNone, uint64(oldSeg), uint64(time.Since(begin).Nanoseconds()))
	// Write-through before the deferred bucket unlocks: once writers can
	// get past the locks, the cache already routes the moved half to
	// newSeg.
	t.cachePublishSplit(old, sib, l+1, estart, span)
	t.splits.Add(1)
	return nil
}

// splitSibling returns the sibling of an in-flight split of d's segment when
// that sibling claims the key's hash, or nil. The caller holds the key's
// bucket locks in the segment: a split cannot publish (which is what retires
// the marker) without those locks, so a non-nil sibling stays valid until
// they are released. The marker shares the header line lockOwner's claim
// check paid for; the sibling's claim costs one read of its own header line.
// The link is stored before the marker, so a marker without its link is one
// a rollback already cleared: that sibling is leaked and needs no assist.
func (t *Table) splitSibling(d *segDesc, parts hashfn.Parts) *segDesc {
	st := segSplitState(t.pool, d.seg)
	if st&splitStateInFlight == 0 {
		return nil
	}
	sib := d.sib.Load()
	if sib == nil || sib.seg != splitStateSibling(st) || !segClaims(t.pool, sib.seg, parts) {
		return nil
	}
	return sib
}

// assistInsert mirrors a fresh insert into the unpublished sibling of an
// in-flight split, under the sibling's bucket-pair locks (always acquired
// after the old segment's — the same two-level order the migrator uses).
// Reports false when the sibling cannot absorb the copy, i.e. the split is
// overflowing pathologically. Durability is deferred to the publish's
// whole-segment persist, like every pre-publish sibling write.
func (t *Table) assistInsert(sd *segDesc, pk *probeKey, kv pmem.KV) bool {
	// Count before touching the sibling: the migrator reads the counter
	// under bucket locks ordered after this store, so a nonzero delta is
	// visible before any duplicate can be.
	t.splitAssists.Add(1)
	p, sib, sibMir := t.pool, sd.seg, t.mirror(sd)
	b, b2 := homePair(pk.parts)
	lockPair(p, sibMir, sib, b, b2)
	// The key is fresh table-wide, but its sibling copy may already exist:
	// if this insert reused a source slot the migration scan captured under
	// the same key (delete + reinsert ABA), the migrator's locked re-verify
	// cannot tell old from new and may have copied it before our counter
	// bump reached its duplicate gate. Both races resolve through this pair
	// lock's handoff: whichever of us inserts first, the other's probe sees
	// it here — so probe before inserting.
	ok := true
	if _, dup := segFindLocked(p, t.vlog, sib, pk); !dup {
		ok = segInsertLocked(p, sibMir, sib, pk.parts, kv, false, t.seed)
	}
	unlockPair(p, sibMir, sib, b, b2)
	return ok
}

// assistDelete mirrors a delete into the sibling of an in-flight split: if
// the migrator already copied the record, the copy must die too or the key
// would resurrect when the split publishes.
func (t *Table) assistDelete(sd *segDesc, pk *probeKey) {
	p, sib, sibMir := t.pool, sd.seg, t.mirror(sd)
	b, b2 := homePair(pk.parts)
	lockPair(p, sibMir, sib, b, b2)
	if loc, found := segFindLocked(p, t.vlog, sib, pk); found {
		segDeleteAt(p, sibMir, sib, pk.parts, loc, true, false)
	}
	unlockPair(p, sibMir, sib, b, b2)
}

// assistOverwrite mirrors a record overwrite into the sibling of an in-flight
// split, so an already-migrated copy does not revive the old value at
// publish: the copy's record words are overwritten with kv (for an inline
// update that is just the value word; for a copy-on-write update it is the
// new blob's word 0, word 1 — the hash — being unchanged). A copy the
// migrator has not made yet needs nothing after a plain update (insert =
// false): the migrator copies the record's *current* words under the home
// bucket's lock, and its sibling critical section serializes with this one.
// A representation conversion (insert = true) inserts the converted record
// instead: the migrator will then skip the old slot, whose word 0 no longer
// matches its scan, or dedupe against this copy through the assist counter's
// gate. Reports false when the sibling cannot absorb that insert.
func (t *Table) assistOverwrite(sd *segDesc, pk *probeKey, kv pmem.KV, insert bool) bool {
	if insert {
		t.splitAssists.Add(1) // before touching the sibling, like assistInsert
	}
	p, sib, sibMir := t.pool, sd.seg, t.mirror(sd)
	b, b2 := homePair(pk.parts)
	lockPair(p, sibMir, sib, b, b2)
	ok := true
	if loc, found := segFindLocked(p, t.vlog, sib, pk); found {
		ra := recordAddr(segBucket(sib, loc.bucket), loc.slot)
		p.StoreU64(ra.Add(8), kv.Value)
		p.StoreU64(ra, kv.Key)
		sibMir.recWord(loc.bucket, loc.slot, 1).Store(kv.Value)
		sibMir.recWord(loc.bucket, loc.slot, 0).Store(kv.Key)
	} else if insert {
		ok = segInsertLocked(p, sibMir, sib, pk.parts, kv, false, t.seed)
	}
	unlockPair(p, sibMir, sib, b, b2)
	return ok
}
