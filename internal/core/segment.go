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

// The split-state word at segOffSplit is the persistent split-progress
// marker — nothing else: who owns a running split is DRAM state (segDesc).
// Zero means no split is in flight; otherwise the low bit is set and the
// remaining bits hold the sibling segment's (256-aligned) address. A split
// stores it, persisted, before it copies anything, and clears it in the same
// header persist that narrows the claim. Recovery reads the marker to finish
// or roll back a half-migrated split (see Table.recoverLazy) and clears it.
const splitStateInFlight = 1

func segBucket(seg pmem.Addr, i int) pmem.Addr {
	return seg.Add(uint64(segHeaderSize + i*bucketSize))
}

// segMeta returns seg's (local depth, pattern) pair — recovery's read of
// the header the mirror carries at run time. The depth load pays for the
// header line; the pattern shares it and is read quietly.
func segMeta(p *pmem.Pool, seg pmem.Addr) (uint8, uint64) {
	return uint8(p.LoadU64(seg.Add(segOffDepth))), p.QuietLoadU64(seg.Add(segOffPattern))
}

// segSetMeta updates local depth and pattern and persists the header line.
// The caller writes the same claim through to the segment's mirror
// (segMirror.setClaim) where one exists. The only concurrent caller is the
// split publish, which holds every bucket lock, so neither a writer's claim
// check (Table.lockOwner) nor a mirror reader can observe the claim
// mid-change.
func segSetMeta(p *pmem.Pool, seg pmem.Addr, depth uint8, pattern uint64) {
	p.StoreU64(seg.Add(segOffDepth), uint64(depth))
	p.StoreU64(seg.Add(segOffPattern), pattern)
	p.Persist(seg, segHeaderSize)
}

// zeroSegment is the image segInit stores over a recycled block.
var zeroSegment [segmentSize]byte

// segInit zeroes a freshly allocated segment and writes its header. The
// caller persists the whole range once it is fully populated; until then
// the segment is unpublished and invisible to every other goroutine — so
// the zeroing is quiet, its media traffic charged by that publishing flush.
func segInit(p *pmem.Pool, seg pmem.Addr, depth uint8, pattern uint64) {
	p.QuietStoreBytes(seg, zeroSegment[:])
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
func (t *Table) lockPair(mir *segMirror, b1, b2 int) {
	if b2 < b1 {
		b1, b2 = b2, b1
	}
	t.lockBucket(mir, b1)
	t.lockBucket(mir, b2)
}

func unlockPair(mir *segMirror, b1, b2 int) {
	unlockBucket(mir, b1)
	unlockBucket(mir, b2)
}

// recLoc names a record inside a segment.
type recLoc struct {
	bucket  int // index into the segment's bucket array (≥ normalBuckets = stash)
	slot    int
	tracked int // stash hits: tracking slot in the home bucket, or -1
}

func (l recLoc) inStash() bool { return l.bucket >= normalBuckets }

// stashReachable reports whether a lookup reaches a record with fingerprint
// fp in stash bucket j, given its home bucket's meta and fingerprint-hi
// words: the home tracks it, or counts untracked spills.
func stashReachable(hm, hhi uint64, fp uint8, j int) bool {
	return metaFindTracked(hm, hhi, fp, j) >= 0 || metaOvCount(hm) > 0
}

// segInsertLocked places a record, trying in order: the emptier of the two
// candidate buckets (balanced insert), displacing a neighbor-owned record
// one bucket over, then the stash. Returns false when the segment needs to
// split. The caller holds the home pair's locks and this function takes the
// extra locks it needs (displacement target via trylock to stay
// deadlock-free, stash buckets in ascending order). Every placement decision
// — free-slot counts, the displacement victim — is read from the mirror.
//
// private=true is the mode for building a split's unpublished sibling, which
// only the split owner can reach: there is nobody to exclude, so no lock is
// taken at all (the caller holds none either), and nothing is persisted —
// durability comes from the publish's whole-segment flush (see
// bucketInsertLocked).
func (t *Table) segInsertLocked(mir *segMirror, seg pmem.Addr, parts hashfn.Parts, kv pmem.KV, private bool) bool {
	p, persist := t.pool, !private
	b, b2 := homePair(parts)
	ba, b2a := segBucket(seg, b), segBucket(seg, b2)

	// Balanced insert: prefer the bucket with more free slots, home on ties.
	f1, f2 := bucketFreeSlots(mir, b), bucketFreeSlots(mir, b2)
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
	if private || tryLockBucket(mir, b3) {
		displaced := false
		if bucketFreeSlots(mir, b3) > 0 {
			// b2 is full (f1 == f2 == 0): every slot holds a record.
			for slot := 0; slot < slotsPerBucket && !displaced; slot++ {
				vict := mir.rec(b2, slot)
				vp := recSplitParts(vict, t.seed)
				if int(vp.BucketIndex(bucketBits)) != b2 {
					continue
				}
				bucketInsertLocked(p, mir, b3a, b3, vp.FP, vict, persist)
				bucketDeleteLocked(p, mir, b2a, b2, slot, persist)
				displaced = true
			}
		}
		if !private {
			unlockBucket(mir, b3)
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
			t.lockBucket(mir, normalBuckets+j)
		}
		ok := bucketInsertLocked(p, mir, sa, normalBuckets+j, parts.FP, kv, persist)
		if !private {
			unlockBucket(mir, normalBuckets+j)
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
func (t *Table) segDeleteAt(mir *segMirror, seg pmem.Addr, parts hashfn.Parts, loc recLoc, concurrent bool) {
	p, sa := t.pool, segBucket(seg, loc.bucket)
	if !loc.inStash() {
		bucketDeleteLocked(p, mir, sa, loc.bucket, loc.slot, true)
		return
	}
	if concurrent {
		t.lockBucket(mir, loc.bucket)
	}
	bucketDeleteLocked(p, mir, sa, loc.bucket, loc.slot, true)
	if concurrent {
		unlockBucket(mir, loc.bucket)
	}
	hb := int(parts.BucketIndex(bucketBits))
	bucketUntrackOverflow(p, mir, segBucket(seg, hb), hb, loc.tracked)
}

// segSweep deletes every record for which drop returns true, fixing stash
// tracking metadata as it goes, and returns the number of records removed.
// Recovery's pass: the caller owns the whole segment (its first-touch gate)
// and has built mir from it, so like every mutator it reads the mirror and
// stores to both.
func (t *Table) segSweep(mir *segMirror, seg pmem.Addr, drop func(parts hashfn.Parts, kv pmem.KV) bool) int {
	removed := 0
	for bi := 0; bi < totalBuckets; bi++ {
		m := mir.word(bi, mirBkMeta).Load()
		for slot := 0; slot < slotsPerBucket; slot++ {
			if !metaSlotUsed(m, slot) {
				continue
			}
			kv := mir.rec(bi, slot)
			parts := recSplitParts(kv, t.seed)
			if !drop(parts, kv) {
				continue
			}
			loc := recLoc{bucket: bi, slot: slot, tracked: -1}
			if loc.inStash() {
				home := int(parts.BucketIndex(bucketBits))
				loc.tracked = metaFindTracked(mir.word(home, mirBkMeta).Load(), mir.word(home, mirBkFPHi).Load(), parts.FP, bi-normalBuckets)
			}
			t.segDeleteAt(mir, seg, parts, loc, false)
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
// drop-slot bitmap, computed by the split's copy scan under the same locks
// (splitCopy), so still current. Stash records are read, from the mirror,
// and dropped when drop says so — each drop needs the record's hash to fix
// its home bucket's overflow tracking.
//
// The drop decision is computed for all records first and applied per meta
// word, so drop must not depend on sweep order (the split publish's
// depth-bit predicate does not).
func segSweepBatched(p *pmem.Pool, mir *segMirror, seg pmem.Addr, seed uint64, drop func(parts hashfn.Parts, kv pmem.KV) bool, known []uint64) int {
	var metas [totalBuckets]uint64 // stack-sized: the sweep allocates nothing
	var dirty [totalBuckets]bool
	for bi := 0; bi < totalBuckets; bi++ {
		metas[bi] = mir.word(bi, mirBkMeta).Load()
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
		m := metas[bi] // pre-sweep snapshot: iterate original occupancy
		for slot := 0; slot < slotsPerBucket; slot++ {
			if !metaSlotUsed(m, slot) {
				continue
			}
			kv := mir.rec(bi, slot)
			parts := recSplitParts(kv, seed)
			if !drop(parts, kv) {
				continue
			}
			metas[bi] = metaClearSlot(metas[bi], slot)
			dirty[bi] = true
			// Fix the home bucket's overflow tracking in its *buffered* meta
			// word — searching the buffer (not the mirror) keeps two
			// same-fingerprint drops from resolving to the same tracking
			// slot. The hi word (stash indexes) never changes during a
			// sweep, so the mirror's is exact.
			home := int(parts.BucketIndex(bucketBits))
			hhi := mir.word(home, mirBkFPHi).Load()
			if ts := metaFindTracked(metas[home], hhi, parts.FP, bi-normalBuckets); ts >= 0 {
				metas[home] = metaClearOvFP(metas[home], ts)
			} else {
				metas[home] = metaAddOvCount(metas[home], -1)
			}
			dirty[home] = true
			removed++
		}
	}
	for bi := 0; bi < totalBuckets; bi++ {
		if !dirty[bi] {
			continue
		}
		a := segBucket(seg, bi).Add(bkOffMeta)
		p.StoreU64(a, metas[bi]) // the sweep's one store to this header line
		mir.word(bi, mirBkMeta).Store(metas[bi])
		p.Flush(a, 8)
	}
	p.Fence()
	return removed
}

// segCount returns the number of live records (allocation bitmap popcount).
func segCount(mir *segMirror) int {
	n := 0
	for bi := 0; bi < totalBuckets; bi++ {
		n += slotsPerBucket - bucketFreeSlots(mir, bi)
	}
	return n
}
