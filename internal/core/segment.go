package core

import (
	"math/bits"

	"dash/internal/hashfn"
	"dash/internal/pmem"
)

// Segment layer (§4.2). A segment is a fixed array of 64 normal buckets
// followed by 2 stash buckets, prefixed by one header cacheline holding the
// segment's extendible-hashing state (local depth + pattern). Keys map to a
// target bucket b and may also live in its neighbor b+1 (balanced insert),
// migrate a neighbor's record one bucket over (displacement), or spill into
// a stash bucket with tracking metadata left in the home bucket so that
// negative lookups rarely touch the stash.
const (
	bucketBits    = 6
	normalBuckets = 1 << bucketBits // 64
	stashBuckets  = 2

	totalBuckets = normalBuckets + stashBuckets

	segHeaderSize = 64
	segOffDepth   = 0
	segOffPattern = 8
	segOffSplit   = 16 // split-progress marker; see splitStateInFlight

	segmentSize = segHeaderSize + totalBuckets*bucketSize

	slotsPerSegment = totalBuckets * slotsPerBucket
)

// The split-state word at segOffSplit is both the runtime split-ownership
// claim and the persistent split-progress marker. Zero means no split is in
// flight. The low bit set means a split owns this segment; the remaining
// bits hold the sibling segment's (256-aligned) address once it has been
// allocated, or zero while the claim is still being set up. Recovery reads
// the marker to finish or roll back a half-migrated split (see
// Table.recoverLazy) and clears it, so — like the bucket version locks — the
// word never survives a restart.
const splitStateInFlight = 1

func segBucket(seg pmem.Addr, i int) pmem.Addr {
	return seg.Add(uint64(segHeaderSize + i*bucketSize))
}

// touchRecordLines accounts one sequential read of the record cachelines a
// full bucket scan dereferences, so the per-record loads themselves can be
// quiet (one-charge-per-line: a scan streams the bucket's lines once; the
// header line, which also holds records 0 and 1, was already paid by the
// caller's lock acquisition or version load). Slots are allocated
// lowest-first, so only lines up to the highest used slot are charged.
func touchRecordLines(p *pmem.Pool, ba pmem.Addr, m uint64) {
	last := bits.Len64(m&slotMask) - 1 // highest used slot, -1 when empty
	if last < 2 {
		return // records 0 and 1 live in the header's cacheline
	}
	end := uint64(bkOffRecords + (last+1)*pmem.RecordSize)
	p.TouchRead(ba.Add(pmem.CachelineSize), end-pmem.CachelineSize)
}

func segDepth(p *pmem.Pool, seg pmem.Addr) uint8 {
	return uint8(p.LoadU64(seg.Add(segOffDepth)))
}

// segMeta returns seg's (local depth, pattern) pair. The depth load pays for
// the header line; the pattern shares it and is read quietly.
func segMeta(p *pmem.Pool, seg pmem.Addr) (uint8, uint64) {
	return segDepth(p, seg), p.QuietLoadU64(seg.Add(segOffPattern))
}

// segClaims reports whether seg's own PM header claims key ownership: the
// key's top `local depth` hash bits equal the segment's pattern. One charged
// read, the header line. For a caller holding the key's pair locks in seg
// this is the whole route validation (Table.lockOwner): a publish narrows a
// segment's claim — and flips the directory entries that implies — only
// while holding all of the segment's bucket locks, segments are never
// reclaimed, and the published (depth, pattern) pairs partition the hash
// space, so the claiming segment is the key's directory owner. Lock-free
// callers may catch a publish half done: Table.validateRoute.
func segClaims(p *pmem.Pool, seg pmem.Addr, parts hashfn.Parts) bool {
	l, pat := segMeta(p, seg)
	return hashfn.SegmentIndex(parts.Hash, l) == pat
}

// segSetMeta updates local depth and pattern and persists the header line,
// writing through to the segment's DRAM mirror when one is attached. The
// only concurrent caller is the split publish, which holds every bucket
// lock, so mirror readers cannot observe the claim mid-change.
func segSetMeta(p *pmem.Pool, mir *segMirror, seg pmem.Addr, depth uint8, pattern uint64) {
	p.StoreU64(seg.Add(segOffDepth), uint64(depth))
	p.StoreU64(seg.Add(segOffPattern), pattern)
	p.Persist(seg, segHeaderSize)
	if mir != nil {
		mir.depth.Store(uint64(depth))
		mir.pattern.Store(pattern)
	}
}

// segInit zeroes a freshly allocated segment and writes its header. The
// caller persists the whole range once it is fully populated; until then
// the segment is unpublished and invisible to every other goroutine — so
// the zeroing is quiet, its media traffic charged by that publishing flush.
func segInit(p *pmem.Pool, seg pmem.Addr, depth uint8, pattern uint64) {
	p.QuietZero(seg, segmentSize)
	p.StoreU64(seg.Add(segOffDepth), uint64(depth))
	p.StoreU64(seg.Add(segOffPattern), pattern)
}

func segPersist(p *pmem.Pool, seg pmem.Addr) {
	p.Flush(seg, segmentSize)
	p.Fence()
}

// homePair returns a key's two candidate buckets: its home and the next one.
func homePair(parts hashfn.Parts) (b, b2 int) {
	b = int(parts.BucketIndex(bucketBits))
	return b, (b + 1) % normalBuckets
}

// lockPair acquires the two candidate buckets of a key in ascending index
// order; with every writer following the same order (normal buckets
// ascending, then stash buckets ascending, displacement targets only via
// trylock) the lock graph is acyclic.
func lockPair(p *pmem.Pool, mir *segMirror, seg pmem.Addr, b1, b2 int) {
	if b2 < b1 {
		b1, b2 = b2, b1
	}
	lockBucket(p, mir, segBucket(seg, b1), b1)
	lockBucket(p, mir, segBucket(seg, b2), b2)
}

func unlockPair(p *pmem.Pool, mir *segMirror, seg pmem.Addr, b1, b2 int) {
	unlockBucket(p, mir, segBucket(seg, b1), b1)
	unlockBucket(p, mir, segBucket(seg, b2), b2)
}

// recLoc names a record inside a segment.
type recLoc struct {
	bucket  int // index into the segment's bucket array (≥ normalBuckets = stash)
	slot    int
	tracked int // stash hits: tracking slot in the home bucket, or -1
}

func (l recLoc) inStash() bool { return l.bucket >= normalBuckets }

// segFindLocked locates the probe's key while the caller holds the home
// pair's locks. Stash buckets are scanned without their locks: records of
// this home cannot move (we hold the home lock, which every stash mutation
// of this home takes), and records of other homes can never alias our key.
func segFindLocked(p *pmem.Pool, vl *pmem.VarLog, seg pmem.Addr, pk *probeKey) (recLoc, bool) {
	b, b2 := homePair(pk.parts)
	if slot := bucketFindLocked(p, vl, segBucket(seg, b), pk); slot >= 0 {
		return recLoc{bucket: b, slot: slot, tracked: -1}, true
	}
	if slot := bucketFindLocked(p, vl, segBucket(seg, b2), pk); slot >= 0 {
		return recLoc{bucket: b2, slot: slot, tracked: -1}, true
	}
	ba := segBucket(seg, b)
	m := p.QuietLoadU64(ba.Add(bkOffMeta)) // header line paid by the caller's lock
	hi := p.QuietLoadU64(ba.Add(bkOffFPHi))
	for i := 0; i < maxOvSlots; i++ {
		if !metaOvSlotUsed(m, i) || metaOvFP(m, i) != pk.parts.FP {
			continue
		}
		j := ovIdxGet(hi, i)
		if slot := bucketFindLocked(p, vl, segBucket(seg, normalBuckets+j), pk); slot >= 0 {
			return recLoc{bucket: normalBuckets + j, slot: slot, tracked: i}, true
		}
	}
	if metaOvCount(m) > 0 {
		for j := 0; j < stashBuckets; j++ {
			if slot := bucketFindLocked(p, vl, segBucket(seg, normalBuckets+j), pk); slot >= 0 {
				return recLoc{bucket: normalBuckets + j, slot: slot, tracked: -1}, true
			}
		}
	}
	return recLoc{}, false
}

// segInsertLocked places a record, trying in order: the emptier of the two
// candidate buckets (balanced insert), displacing a neighbor-owned record
// one bucket over, then the stash. Returns false when the segment needs to
// split. The caller holds the home pair's locks and this function takes the
// extra locks it needs (displacement target via trylock to stay
// deadlock-free, stash buckets in ascending order).
//
// private=true is the mode for building a split's unpublished sibling, which
// only the split owner can reach: there is nobody to exclude, so no lock is
// taken at all (the caller holds none either), and nothing is persisted —
// durability comes from the publish's whole-segment flush (see
// bucketInsertLocked).
func segInsertLocked(p *pmem.Pool, mir *segMirror, seg pmem.Addr, parts hashfn.Parts, kv pmem.KV, private bool, seed uint64) bool {
	persist := !private
	b, b2 := homePair(parts)
	ba, b2a := segBucket(seg, b), segBucket(seg, b2)

	// Balanced insert: prefer the bucket with more free slots, home on ties.
	f1, f2 := bucketFreeSlots(p, ba), bucketFreeSlots(p, b2a)
	if f1 >= f2 && f1 > 0 {
		return bucketInsertLocked(p, mir, ba, b, parts.FP, kv, persist)
	}
	if f2 > 0 {
		return bucketInsertLocked(p, mir, b2a, b2, parts.FP, kv, persist)
	}

	// Displacement: make room in the probing bucket b2 by moving one of its
	// *own* records (home == b2, i.e. not itself displaced) to b2's probing
	// bucket b3. The moved key stays within its candidate pair, so readers
	// still find it; the copy-then-delete order means a crash can at worst
	// duplicate it, which recovery deduplicates.
	b3 := (b2 + 1) % normalBuckets
	b3a := segBucket(seg, b3)
	if private || tryLockBucket(p, mir, b3a, b3) {
		displaced := false
		if bucketFreeSlots(p, b3a) > 0 {
			// b2 is full (f1 == f2 == 0). Records 0 and 1 share the header
			// line b2's lock paid for; each further record line is charged
			// once, when the scan first reaches it (slots 2, 6, 10).
			for slot := 0; slot < slotsPerBucket && !displaced; slot++ {
				ra := recordAddr(b2a, slot)
				if slot >= 2 && uint64(ra)%pmem.CachelineSize == 0 {
					p.TouchRead(ra, pmem.CachelineSize)
				}
				vict := p.QuietReadKV(ra)
				vp := recSplitParts(vict, seed)
				if int(vp.BucketIndex(bucketBits)) != b2 {
					continue
				}
				bucketInsertLocked(p, mir, b3a, b3, vp.FP, vict, persist)
				bucketDeleteLocked(p, mir, b2a, b2, slot, persist)
				displaced = true
			}
		}
		if !private {
			unlockBucket(p, mir, b3a, b3)
		}
		if displaced {
			return bucketInsertLocked(p, mir, b2a, b2, parts.FP, kv, persist)
		}
	}

	// Stash: record goes to any stash bucket with room; the home bucket
	// (locked by us) learns about it via overflow metadata. Record first,
	// metadata second: a crash in between leaves an unreachable ghost that
	// recovery sweeps, never a dangling pointer.
	for j := 0; j < stashBuckets; j++ {
		sa := segBucket(seg, normalBuckets+j)
		if !private {
			lockBucket(p, mir, sa, normalBuckets+j)
		}
		ok := bucketInsertLocked(p, mir, sa, normalBuckets+j, parts.FP, kv, persist)
		if !private {
			unlockBucket(p, mir, sa, normalBuckets+j)
		}
		if ok {
			bucketTrackOverflow(p, mir, ba, b, parts.FP, j, persist)
			return true
		}
	}
	return false
}

// segDeleteAt removes the record at loc, fixing the home bucket's overflow
// metadata when the record lived in the stash. Caller holds the home pair's
// locks (or owns the whole segment).
func segDeleteAt(p *pmem.Pool, mir *segMirror, seg pmem.Addr, parts hashfn.Parts, loc recLoc, concurrent bool) {
	sa := segBucket(seg, loc.bucket)
	if !loc.inStash() {
		bucketDeleteLocked(p, mir, sa, loc.bucket, loc.slot, true)
		return
	}
	if concurrent {
		lockBucket(p, mir, sa, loc.bucket)
	}
	bucketDeleteLocked(p, mir, sa, loc.bucket, loc.slot, true)
	if concurrent {
		unlockBucket(p, mir, sa, loc.bucket)
	}
	hb := int(parts.BucketIndex(bucketBits))
	bucketUntrackOverflow(p, mir, segBucket(seg, hb), hb, loc.tracked)
}

// segSweep deletes every record for which drop returns true, fixing stash
// tracking metadata as it goes. The caller owns every bucket of the segment
// (split cleanup holds all locks; recovery is single-threaded). Returns the
// number of records removed.
func segSweep(p *pmem.Pool, seg pmem.Addr, seed uint64, drop func(parts hashfn.Parts, kv pmem.KV) bool) int {
	removed := 0
	for bi := 0; bi < totalBuckets; bi++ {
		ba := segBucket(seg, bi)
		m := p.LoadU64(ba.Add(bkOffMeta))
		for slot := 0; slot < slotsPerBucket; slot++ {
			if !metaSlotUsed(m, slot) {
				continue
			}
			kv := p.ReadKV(recordAddr(ba, slot))
			parts := recSplitParts(kv, seed)
			if !drop(parts, kv) {
				continue
			}
			loc := recLoc{bucket: bi, slot: slot, tracked: -1}
			if loc.inStash() {
				home := segBucket(seg, int(parts.BucketIndex(bucketBits)))
				loc.tracked = findTrackedSlot(p, home, parts.FP, bi-normalBuckets)
			}
			// Recovery-only path: mirrors are rebuilt wholesale afterwards.
			segDeleteAt(p, nil, seg, parts, loc, false)
			removed++
		}
	}
	return removed
}

// segSweepBatched removes a split's moved records with one header store +
// flush per *bucket* instead of per record, plus a single fence at the end —
// the persist-batched sweep the split publish runs while it holds every
// bucket lock. Only allocation bitmaps and overflow-tracking metadata change
// (all packed in the bucket meta words); dropping a bucket's records and
// untracking its stash spills therefore coalesce into one persisted word per
// touched bucket. Returns the number of records removed.
//
// Normal buckets are swept without a record read: known[bi] is the bucket's
// drop-slot bitmap, computed by the split's copy scan and proven current by
// the bucket versions (splitCopy). Stash records are read, and dropped when
// drop says so — each drop needs the record's hash to fix its home bucket's
// overflow tracking.
//
// The drop decision is computed for all records first and applied per meta
// word, so drop must not depend on sweep order (the split publish's
// depth-bit predicate does not).
func segSweepBatched(p *pmem.Pool, mir *segMirror, seg pmem.Addr, seed uint64, drop func(parts hashfn.Parts, kv pmem.KV) bool, known []uint64, hookMidSweep func()) int {
	var metas [totalBuckets]uint64 // stack-sized: the sweep allocates nothing
	var dirty [totalBuckets]bool
	for bi := 0; bi < totalBuckets; bi++ {
		// Header lines were paid by the caller's lock acquisitions.
		metas[bi] = p.QuietLoadU64(segBucket(seg, bi).Add(bkOffMeta))
	}
	removed := 0
	for bi := 0; bi < normalBuckets; bi++ {
		if drops := known[bi] & metas[bi] & slotMask; drops != 0 {
			metas[bi] &^= drops
			dirty[bi] = true
			removed += bits.OnesCount64(drops)
		}
	}
	for bi := normalBuckets; bi < totalBuckets; bi++ {
		ba := segBucket(seg, bi)
		m := metas[bi] // pre-sweep snapshot: iterate original occupancy
		touchRecordLines(p, ba, m)
		for slot := 0; slot < slotsPerBucket; slot++ {
			if !metaSlotUsed(m, slot) {
				continue
			}
			kv := p.QuietReadKV(recordAddr(ba, slot))
			parts := recSplitParts(kv, seed)
			if !drop(parts, kv) {
				continue
			}
			metas[bi] = metaClearSlot(metas[bi], slot)
			dirty[bi] = true
			// Fix the home bucket's overflow tracking in its *buffered* meta
			// word — searching the buffer (not PM) keeps two
			// same-fingerprint drops from resolving to the same tracking
			// slot. The hi word (stash indexes) never changes during a
			// sweep, so reading it from PM is exact.
			home := int(parts.BucketIndex(bucketBits))
			hhi := p.QuietLoadU64(segBucket(seg, home).Add(bkOffFPHi))
			if ts := metaFindTracked(metas[home], hhi, parts.FP, bi-normalBuckets); ts >= 0 {
				metas[home] = metaClearOvFP(metas[home], ts)
			} else {
				metas[home] = metaAddOvCount(metas[home], -1)
			}
			dirty[home] = true
			removed++
		}
	}
	fenced := false
	for bi := 0; bi < totalBuckets; bi++ {
		if !dirty[bi] {
			continue
		}
		a := segBucket(seg, bi).Add(bkOffMeta)
		p.QuietStoreU64(a, metas[bi]) // header line paid by the caller's lock
		if mir != nil {
			mir.word(bi, mirBkMeta).Store(metas[bi])
		}
		p.Flush(a, 8)
		if !fenced && hookMidSweep != nil {
			// Crash-injection point: first meta line flushed, fence and the
			// remaining buckets still pending.
			p.Fence()
			fenced = true
			hookMidSweep()
		}
	}
	p.Fence()
	return removed
}

// segCount returns the number of live records (allocation bitmap popcount).
func segCount(p *pmem.Pool, seg pmem.Addr) int {
	n := 0
	for bi := 0; bi < totalBuckets; bi++ {
		n += slotsPerBucket - bucketFreeSlots(p, segBucket(seg, bi))
	}
	return n
}
