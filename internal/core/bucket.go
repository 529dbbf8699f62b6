package core

import (
	"math/bits"
	"runtime"

	"dash/internal/pmem"
)

// Bucket layer (§4.1–4.2). A bucket is one 256-byte PM block: 16 bytes of
// padding, then 14 fixed-size records, then 16 bytes of padding. PM keeps no
// bitmap: a slot is live iff its record's word 0 is non-zero (record.go
// encodes every live word 0 so), so the store of word 0 is the atomic commit
// point of an insert and the store of a zero word 0 that of a delete, each
// persisted with its record's one line.
//
//	off   0: padding — never read, any value is legal
//	off  16: 14 × 16-byte records, each either an inline 8B/8B KV or an
//	         indirect (log blob address | key-length class, full key hash)
//	         pair — see record.go
//	off 240: padding — never read, any value is legal
//
// PM holds nothing a running op loads: every probe, a reader's or a
// writer's, runs in the segment's DRAM mirror (segfilter.go), whose header
// words carry what PM does not keep — the allocation bitmap, per-slot
// fingerprints and the home bucket's stash count — and the bucket's version
// lock. All are functions of the committed records (a bitmap bit is a
// non-zero word 0, a fingerprint a byte of the record's hash, a stash count
// the number of stash records whose hash names the bucket their home), so
// recovery recomputes them at first touch (recoverSegment) and storing them
// would only cost lines.
//
// The two record words are probed fingerprint-first whatever the
// representation; word 0's bit 63 discriminates inline from indirect, and
// every publish/commit path below is representation-blind.
const (
	bucketSize     = 256
	slotsPerBucket = 14

	bkOffPadding = 0 // head padding: keeps records 16-aligned
	bkOffRecords = 16
	bkOffTail    = bkOffRecords + slotsPerBucket*pmem.RecordSize // tail padding, to bucketSize

	slotMask = (1 << slotsPerBucket) - 1

	// metaStashShift places a home bucket's stash count in the mirror's meta
	// word, above the bitmap.
	metaStashShift = 16
)

// --- pure bit helpers on the packed header words (unit-testable) ---
//
// The mirror (segfilter.go) packs a bucket's header into three words:
//
//	meta: bits 0..13  allocation bitmap: bit s set iff slot s's PM word 0 is
//	                  non-zero, but for a slot a drop cleared (segDrop)
//	      bits 16..23 stash count: how many records homed here live in the
//	                  stash (at most the stash's 28 slots); every other bit 0
//	fpLo: fingerprints of slots 0..7
//	fpHi: bytes 0..5 fingerprints of slots 8..13; bytes 6 and 7 unused

func metaSlotUsed(m uint64, slot int) bool { return m&(1<<uint(slot)) != 0 }
func metaSetSlot(m uint64, slot int) uint64 {
	return m | 1<<uint(slot)
}
func metaClearSlot(m uint64, slot int) uint64 { return m &^ (1 << uint(slot)) }
func metaFreeSlots(m uint64) int {
	return slotsPerBucket - bits.OnesCount64(m&slotMask)
}
func metaFirstFree(m uint64) int {
	free := ^m & slotMask
	if free == 0 {
		return -1
	}
	return bits.TrailingZeros64(free)
}

func metaStashCount(m uint64) int { return int(m >> metaStashShift & 0xFF) }

func fpGet(lo, hi uint64, slot int) uint8 {
	if slot < 8 {
		return uint8(lo >> uint(8*slot))
	}
	return uint8(hi >> uint(8*(slot-8)))
}

// fpMatches returns the slots whose fingerprint in (lo, hi) is fp, bit s for
// slot s, with no per-slot loop: a byte of w ^ fp·0x0101…01 is zero exactly
// where the slot matches (zeroBytes). Bytes 6 and 7 of hi are not slots and
// never set a bit.
func fpMatches(lo, hi uint64, fp uint8) uint64 {
	b := uint64(fp) * lowBytes
	return (zeroBytes(lo^b) | zeroBytes(hi^b)<<8) & slotMask
}

const (
	lowBytes = 0x0101010101010101
	lowSeven = 0x7F7F7F7F7F7F7F7F
)

// zeroBytes sets bit i iff byte i of x is zero. Adding 0x7F to a byte's low
// seven bits cannot carry into the next byte, so no byte's answer borrows
// from its neighbour's; the multiply gathers the eight 0x80 flags — bit 8i
// moved to bit 56+i — into the top byte without any two colliding.
func zeroBytes(x uint64) uint64 {
	z := ^((x&lowSeven + lowSeven) | x | lowSeven)
	return (z >> 7) * 0x0102040810204080 >> 56
}

func fpSet(lo, hi uint64, slot int, fp uint8) (uint64, uint64) {
	if slot < 8 {
		lo = lo&^(0xFF<<uint(8*slot)) | uint64(fp)<<uint(8*slot)
		return lo, hi
	}
	sh := uint(8 * (slot - 8))
	hi = hi&^(0xFF<<sh) | uint64(fp)<<sh
	return lo, hi
}

func recordAddr(b pmem.Addr, slot int) pmem.Addr {
	return b.Add(uint64(bkOffRecords + pmem.RecordSize*slot))
}

// --- version lock (seqlock: even = free, odd = write-locked) ---
//
// The bucket lock is the version word of the bucket's entry in the segment's
// DRAM mirror (segfilter.go): odd while a writer holds it, even again — and
// one higher — on release. A lock is state only a running process can hold,
// so it lives only where a running process looks, and PM has no word for it.
// All PM mutation and all mirror write-through of a bucket happen inside that
// odd window, so a mirror reader that observes a stable even version
// (mirBucketSearch) holds a snapshot that is also PM's. (A split's
// unpublished sibling is written with no lock held at all: nobody else can
// reach it before the publish.) bi is the bucket's index within its segment,
// the mirror's coordinate.

func tryLockBucket(mir *segMirror, bi int) bool {
	ver := mir.word(bi, mirBkVersion)
	v := ver.Load()
	return v&1 == 0 && ver.CompareAndSwap(v, v+1)
}

// lockBucket spins (yielding) until the bucket is ours. An acquisition that
// found the bucket taken is counted once, in bucket.lock_contended: the
// uncontended path pays one CAS and nothing else. (The counter is the
// table's, not the mirror's: a mirror holds no pointer, so the collector
// never scans one and the allocator lays its words out unshifted.)
func (t *Table) lockBucket(mir *segMirror, bi int) {
	if tryLockBucket(mir, bi) {
		return
	}
	t.filters.lockContended.Inc()
	for !tryLockBucket(mir, bi) {
		runtime.Gosched()
	}
}

// unlockBucket releases the lock and advances the version so that any
// optimistic reader whose scan overlapped the critical section retries.
func unlockBucket(mir *segMirror, bi int) {
	mir.word(bi, mirBkVersion).Add(1)
}

// --- writer-side operations; the caller holds the bucket's lock ---
//
// Every decision a mutator makes — which slot is free, which fingerprints
// are set — is read from the mirror, which is exact by write-through: PM is
// only stored to, and only records. Charging follows the tree's
// one-charge-per-line rule (pmem/access.go) with nothing paid in advance: the
// first store an operation makes to a line is a charged store, further
// stores to that line before its flush are quiet — real hardware absorbs
// them in the cache and writes the line back once. Every insert and every
// delete stores to its record's line alone, so each is one line, one flush
// and one fence. All flush/fence charges are untouched, so per-op media
// traffic remains honestly counted.

func bucketFreeSlots(mir *segMirror, bi int) int {
	return metaFreeSlots(mir.word(bi, mirBkMeta).Load())
}

// bucketInsertLocked stores the record into the mirror's lowest free slot
// and persists it: word 0, the commit, goes last, and a crash before the
// record's line is flushed leaves the slot as it was (§4.1 insert ordering,
// with the record's own word 0 in the bitmap's place). The fingerprint and
// the bitmap bit go to the mirror alone. It returns the slot taken, or -1
// when the bucket is full.
//
// The slot may still hold a record in PM: a drop (segDrop, recovery's route
// filter) clears slots in the mirror alone, leaving each dropped record — one
// the segment no longer claims — in PM, a stale slot. So the insert stores
// three words into the record's line, zero to word 0, then the value word,
// then word 0, and persists the line once. Stores to one cacheline persist
// in program order (the Px86 model; the simulator flushes whole lines), so
// every prefix a crash can leave is the slot as it was, an empty slot (word
// 0 zero), or the new record: no prefix pairs the old word 0 with the new
// value word — which for a stale indirect record would make the new value
// its hash, one the segment might claim. Only the first store is charged;
// the other two share its line (records are 16-aligned and never straddle
// one).
//
// persist=false skips the persist and charges nothing: the mode for building
// an *unpublished* split sibling, zeroed when allocated, whose durability
// comes from one whole-segment flush+fence right before the directory
// publishes it — a crash before that point rolls the whole sibling back, so
// nothing written into it needs individual ordering — and whose lines that
// publish charges wholesale. All mutators below write through to the segment
// mirror after mutating PM; the caller's lock holds the bucket's version odd,
// so the store order within the window is immaterial.
func bucketInsertLocked(p *pmem.Pool, mir *segMirror, b pmem.Addr, bi int, fp uint8, kv pmem.KV, persist bool) int {
	m := mir.word(bi, mirBkMeta).Load()
	slot := metaFirstFree(m)
	if slot < 0 {
		return -1
	}
	ra := recordAddr(b, slot)
	if persist {
		p.StoreU64(ra, 0)
	}
	p.QuietStoreU64(ra.Add(8), kv.Value)
	p.QuietStoreU64(ra, kv.Key)
	if persist {
		p.Persist(ra, pmem.RecordSize)
	}
	lo, hi := fpSet(mir.word(bi, mirBkFPLo).Load(), mir.word(bi, mirBkFPHi).Load(), slot, fp)
	mir.recWord(bi, slot, 1).Store(kv.Value)
	mir.recWord(bi, slot, 0).Store(kv.Key)
	mir.word(bi, mirBkFPLo).Store(lo)
	mir.word(bi, mirBkFPHi).Store(hi)
	mir.word(bi, mirBkMeta).Store(metaSetSlot(m, slot))
	return slot
}

// bucketDeleteLocked unpublishes a slot: a zero word 0, persisted, is the
// whole operation; the record's word 1 and fingerprint become dead.
// persist=false is for unpublished split siblings (see bucketInsertLocked).
func bucketDeleteLocked(p *pmem.Pool, mir *segMirror, b pmem.Addr, bi int, slot int, persist bool) {
	ra := recordAddr(b, slot)
	if persist {
		p.StoreU64(ra, 0)
		p.Persist(ra, 8)
	} else {
		p.QuietStoreU64(ra, 0)
	}
	mir.word(bi, mirBkMeta).Store(metaClearSlot(mir.word(bi, mirBkMeta).Load(), slot))
}

// bucketAddStash adds delta (±1) to the stash count of home bucket home, in
// the mirror alone: a record homed there entered or left the stash. It
// stores nothing to PM: the stash record's own word 0 commits it, and
// recovery recounts from the committed records. The caller holds home's
// lock or owns the segment.
func bucketAddStash(mir *segMirror, home, delta int) {
	w := mir.word(home, mirBkMeta)
	w.Store(w.Load() + uint64(delta)<<metaStashShift)
}
