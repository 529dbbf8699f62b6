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
// a stash bucket, counted in the home bucket's mirror so that a lookup whose
// home has no stash records never scans the stash.
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
	bucket int // index into the segment's bucket array (≥ normalBuckets = stash)
	slot   int
}

func (l recLoc) inStash() bool { return l.bucket >= normalBuckets }

// Where segPlace put a record: the meters' index (insert.placed.*).
const (
	placedHome = iota
	placedProbe
	placedDisplaced
	placedStash
	placedKinds
)

// segInsertLocked places a record (segPlace) and reports whether it found a
// slot; false means the segment needs to split. Where the table's own
// inserts go is metered (insert.placed.*); a split's copy is not.
func (t *Table) segInsertLocked(mir *segMirror, seg pmem.Addr, parts hashfn.Parts, kv pmem.KV, private bool) bool {
	where, slot := t.segPlace(mir, seg, parts, kv, private)
	if slot < 0 {
		return false
	}
	if !private {
		t.met.placed[where].Inc()
	}
	return true
}

// segPlace places a record, trying in order: the emptier of the two
// candidate buckets (balanced insert), displacing a neighbor-owned record
// one bucket over, then the stash. It returns where the record went and its
// slot, -1 when there is no room. The caller holds the home pair's locks and
// this function takes the extra locks it needs (displacement target via
// trylock to stay deadlock-free, stash buckets in ascending order). Every
// placement decision — free-slot counts, the displacement victim — is read
// from the mirror.
//
// private=true is the mode for building a split's unpublished sibling, which
// only the split owner can reach: there is nobody to exclude, so no lock is
// taken at all (the caller holds none either), and nothing is persisted —
// durability comes from the publish's whole-segment flush (see
// bucketInsertLocked).
func (t *Table) segPlace(mir *segMirror, seg pmem.Addr, parts hashfn.Parts, kv pmem.KV, private bool) (where, slot int) {
	p, persist := t.pool, !private
	b, b2 := homePair(parts)
	ba, b2a := segBucket(seg, b), segBucket(seg, b2)

	// Balanced insert: prefer the bucket with more free slots, home on ties.
	f1, f2 := bucketFreeSlots(mir, b), bucketFreeSlots(mir, b2)
	if f1 >= f2 && f1 > 0 {
		return placedHome, bucketInsertLocked(p, mir, ba, b, parts.FP, kv, persist)
	}
	if f2 > 0 {
		return placedProbe, bucketInsertLocked(p, mir, b2a, b2, parts.FP, kv, persist)
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
			for vs := 0; vs < slotsPerBucket && !displaced; vs++ {
				vict := mir.rec(b2, vs)
				vp := recSplitParts(vict, t.seed)
				if int(vp.BucketIndex(bucketBits)) != b2 {
					continue
				}
				bucketInsertLocked(p, mir, b3a, b3, vp.FP, vict, persist)
				bucketDeleteLocked(p, mir, b2a, b2, vs, persist)
				displaced = true
			}
		}
		if !private {
			unlockBucket(mir, b3)
		}
		if displaced {
			return placedDisplaced, bucketInsertLocked(p, mir, b2a, b2, parts.FP, kv, persist)
		}
	}

	// Stash: the record goes to any stash bucket with room, where its word 0
	// commits it; the home bucket (locked by us) counts it in its mirror,
	// which PM does not keep.
	for j := 0; j < stashBuckets; j++ {
		if !private {
			t.lockBucket(mir, normalBuckets+j)
		}
		slot = bucketInsertLocked(p, mir, segBucket(seg, normalBuckets+j), normalBuckets+j, parts.FP, kv, persist)
		if !private {
			unlockBucket(mir, normalBuckets+j)
		}
		if slot >= 0 {
			bucketAddStash(mir, b, +1)
			return placedStash, slot
		}
	}
	return placedStash, -1
}

// segDeleteAt removes the record at loc, taking the stash bucket's lock and
// decrementing the home bucket's stash count (in its mirror) when the record
// lived in the stash. Caller holds the home pair's locks, or owns the whole
// segment — recovery, on a mirror nobody else can reach, where the stash
// lock is free and taking it never waits.
func (t *Table) segDeleteAt(mir *segMirror, seg pmem.Addr, parts hashfn.Parts, loc recLoc) {
	p, sa := t.pool, segBucket(seg, loc.bucket)
	if !loc.inStash() {
		bucketDeleteLocked(p, mir, sa, loc.bucket, loc.slot, true)
		return
	}
	t.lockBucket(mir, loc.bucket)
	bucketDeleteLocked(p, mir, sa, loc.bucket, loc.slot, true)
	unlockBucket(mir, loc.bucket)
	bucketAddStash(mir, int(parts.BucketIndex(bucketBits)), -1)
}

// segSweep deletes every record for which drop returns true, persisted,
// fixing stash counts as it goes, and returns the number of records
// removed. Recovery's duplicate sweep (dedupeSegment): the caller owns the
// whole segment (its first-touch gate) and has built mir from it, so like
// every mutator it reads the mirror and stores to both.
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
			t.segDeleteAt(mir, seg, parts, recLoc{bucket: bi, slot: slot})
			removed++
		}
	}
	return removed
}

// segDrop removes the slots drops names (per bucket, a slot bitmap) from the
// segment's mirror alone: the split publish's sweep of its moved half. It
// stores nothing to PM, where each dropped record stays, its word 0 non-zero
// — a stale slot — until an insert reuses the slot. The publish drops only
// records the directory routes to the sibling, and routing only narrows (a
// split hands a segment's keys to a sibling, nothing ever hands them back),
// so a stale slot always holds a record the segment does not claim:
// recovery's route filter, which runs on every image, drops it again, and a
// crash in the insert that reuses the slot leaves it stale, empty or holding
// the new record (bucketInsertLocked). Each dropped stash record also leaves
// its home bucket's stash count, which lives in the mirror alone.
func segDrop(mir *segMirror, seed uint64, drops *[totalBuckets]uint64) {
	for bi := 0; bi < totalBuckets; bi++ {
		m := mir.word(bi, mirBkMeta).Load()
		d := drops[bi] & m & slotMask
		if d == 0 {
			continue
		}
		mir.word(bi, mirBkMeta).Store(m &^ d)
		if bi < normalBuckets {
			continue
		}
		for ; d != 0; d &= d - 1 {
			parts := recSplitParts(mir.rec(bi, bits.TrailingZeros64(d)), seed)
			bucketAddStash(mir, int(parts.BucketIndex(bucketBits)), -1)
		}
	}
}

// segCount returns the number of live records (the mirror bitmaps' popcount).
func segCount(mir *segMirror) int {
	n := 0
	for bi := 0; bi < totalBuckets; bi++ {
		n += slotsPerBucket - bucketFreeSlots(mir, bi)
	}
	return n
}
