package core

import (
	"math/bits"

	"dash/internal/hashfn"
	"dash/internal/pmem"
)

// Segment layer (§4.2). A segment is a fixed array of 64 normal buckets
// followed by 2 stash buckets, prefixed by one header cacheline holding the
// segment's extendible-hashing state (local depth + pattern); in PM the
// buckets are their records alone (bucket.go). Keys map to a
// target bucket b and may also live in its neighbor b+1 (balanced insert),
// migrate a neighbor's record one bucket over (displacement), or spill into
// a stash bucket, counted in the home bucket's mirror so that a lookup whose
// home has no stash records never scans the stash.
const (
	bucketBits    = 6
	normalBuckets = 1 << bucketBits // 64
	stashBuckets  = 2

	totalBuckets = normalBuckets + stashBuckets

	// The header line: word 0 the local depth, word 8 the pattern, the
	// rest unused. Word 16 held a split-progress marker in earlier writers
	// of this format; nothing reads it, so any value there is legal and
	// their images open unchanged (TestOpenIgnoresOldSplitMarker).
	segHeaderSize = 64
	segOffDepth   = 0
	segOffPattern = 8

	slotsPerSegment = totalBuckets * slotsPerBucket

	// The header line, then the records (slotAddr): 14 848 bytes, 58 × 256.
	segmentSize = segHeaderSize + slotsPerSegment*pmem.RecordSize
)

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
// slot; false means the segment needs to split. Where it went is metered
// (insert.placed.*).
func (t *Table) segInsertLocked(mir *segMirror, seg pmem.Addr, parts hashfn.Parts, kv pmem.KV) bool {
	where, slot := t.segPlace(mir, seg, parts, kv)
	if slot < 0 {
		return false
	}
	t.met.placed[where].Inc()
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
func (t *Table) segPlace(mir *segMirror, seg pmem.Addr, parts hashfn.Parts, kv pmem.KV) (where, slot int) {
	p := t.pool
	b, b2 := homePair(parts)

	// Balanced insert: prefer the bucket with more free slots, home on ties.
	f1, f2 := bucketFreeSlots(mir, b), bucketFreeSlots(mir, b2)
	if f1 >= f2 && f1 > 0 {
		return placedHome, bucketInsertLocked(p, mir, seg, b, parts.FP, kv)
	}
	if f2 > 0 {
		return placedProbe, bucketInsertLocked(p, mir, seg, b2, parts.FP, kv)
	}

	// Displacement: make room in the probing bucket b2 by moving one of its
	// *own* records (home == b2, i.e. not itself displaced) to b2's probing
	// bucket b3. The moved key stays within its candidate pair, so readers
	// still find it; the copy-then-delete order means a crash can at worst
	// duplicate it, which recovery deduplicates.
	b3 := (b2 + 1) % normalBuckets
	if tryLockBucket(mir, b3) {
		displaced := false
		if bucketFreeSlots(mir, b3) > 0 {
			// b2 is full (f1 == f2 == 0): every slot holds a record.
			for vs := 0; vs < slotsPerBucket && !displaced; vs++ {
				vict := mir.rec(b2, vs)
				vp := recSplitParts(vict, t.seed)
				if int(vp.BucketIndex(bucketBits)) != b2 {
					continue
				}
				bucketInsertLocked(p, mir, seg, b3, vp.FP, vict)
				bucketDeleteLocked(p, mir, seg, b2, vs)
				displaced = true
			}
		}
		unlockBucket(mir, b3)
		if displaced {
			return placedDisplaced, bucketInsertLocked(p, mir, seg, b2, parts.FP, kv)
		}
	}

	// Stash: the record goes to any stash bucket with room, where its word 0
	// commits it; the home bucket (locked by us) counts it in its mirror,
	// which PM does not keep.
	for j := 0; j < stashBuckets; j++ {
		t.lockBucket(mir, normalBuckets+j)
		slot = bucketInsertLocked(p, mir, seg, normalBuckets+j, parts.FP, kv)
		unlockBucket(mir, normalBuckets+j)
		if slot >= 0 {
			bucketAddStash(mir, b, +1)
			return placedStash, slot
		}
	}
	return placedStash, -1
}

// segDeleteAt removes the record at loc, taking the stash bucket's lock and
// decrementing the home bucket's stash count (in its mirror) when the record
// lived in the stash. Caller holds the home pair's locks.
func (t *Table) segDeleteAt(mir *segMirror, seg pmem.Addr, parts hashfn.Parts, loc recLoc) {
	if !loc.inStash() {
		bucketDeleteLocked(t.pool, mir, seg, loc.bucket, loc.slot)
		return
	}
	t.lockBucket(mir, loc.bucket)
	bucketDeleteLocked(t.pool, mir, seg, loc.bucket, loc.slot)
	unlockBucket(mir, loc.bucket)
	bucketAddStash(mir, int(parts.BucketIndex(bucketBits)), -1)
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
