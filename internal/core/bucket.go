package core

import (
	"math/bits"
	"runtime"

	"dash/internal/pmem"
)

// Bucket layer (§4.1–4.2). A bucket is one 256-byte PM block: a 16-byte
// header holding the allocation bitmap, then 14 fixed-size records, then 16
// bytes of padding. The bitmap word is the single atomic commit point for
// inserts and deletes, and it lives in the bucket's first cacheline together
// with records 0..2: an insert into one of those slots publishes its record
// and commits it in one line.
//
//	off   0: the meta word — bits 0..13 the allocation bitmap (slot in use);
//	         every other bit is zero
//	off   8: padding — never read, any value is legal
//	off  16: 14 × 16-byte records, each either an inline 8B/8B KV or an
//	         indirect (log blob address | key-length class, full key hash)
//	         pair — see record.go
//	off 240: padding — never read, any value is legal
//
// PM holds nothing a running op loads: every probe, a reader's or a
// writer's, runs in the segment's DRAM mirror (segfilter.go), whose header
// words also carry what PM does not keep — per-slot fingerprints and the
// home bucket's stash count — and the bucket's version lock. Both are
// functions of the committed records (a fingerprint is a byte of the
// record's hash, a stash count the number of stash records whose hash names
// the bucket their home), so recovery recomputes them at first touch
// (recoverSegment) and storing them would only cost lines.
//
// The two record words are still stored value-word-first and probed
// fingerprint-first whatever the representation; word 0's bit 63
// discriminates inline from indirect, and every publish/commit path below
// is representation-blind.
const (
	bucketSize     = 256
	slotsPerBucket = 14

	bkOffMeta    = 0
	bkOffPadding = 8 // header padding: keeps records 16-aligned
	bkOffRecords = 16
	bkOffTail    = bkOffRecords + slotsPerBucket*pmem.RecordSize // tail padding, to bucketSize

	// hdrLineSlots is how many records share the header's cacheline: an
	// insert into one of them stores one line, the others two.
	hdrLineSlots = (pmem.CachelineSize - bkOffRecords) / pmem.RecordSize

	slotMask = (1 << slotsPerBucket) - 1

	// metaStashShift places a home bucket's stash count in the mirror's meta
	// word, above the bitmap.
	metaStashShift = 16
)

// --- pure bit helpers on the packed header words (unit-testable) ---
//
// The mirror (segfilter.go) packs a bucket's header into three words:
//
//	meta: bits 0..13  allocation bitmap — PM's meta word is these bits alone
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

// metaLastFree returns the highest free slot, or -1.
func metaLastFree(m uint64) int { return bits.Len64(^m&slotMask) - 1 }

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
// are set — is read from the mirror, which is exact by
// write-through: PM is only stored to, and only records and bitmaps. Charging
// follows the tree's one-charge-per-line rule (pmem/access.go) with nothing
// paid in advance: the first store an operation makes to a line is a charged
// store, further stores to that line before its flush are quiet — real
// hardware absorbs them in the cache and writes the line back once. A
// bucket's header line also holds records 0..hdrLineSlots-1, so a record
// store into one of those slots has paid for the bitmap store that commits
// it. All flush/fence charges are untouched, so per-op media traffic remains
// honestly counted.

// storeWord stores one PM word: charged, or quiet (crash-tracked all the
// same) when the caller has already paid for the word's line or a later
// whole-segment flush will.
func storeWord(p *pmem.Pool, a pmem.Addr, v uint64, charged bool) {
	if charged {
		p.StoreU64(a, v)
	} else {
		p.QuietStoreU64(a, v)
	}
}

func bucketFreeSlots(mir *segMirror, bi int) int {
	return metaFreeSlots(mir.word(bi, mirBkMeta).Load())
}

// bucketInsertLocked writes the record, persists it, and only then publishes
// it by setting its bitmap bit and persisting the meta word: the single
// atomic bitmap store is the commit point, a crash before the header line is
// flushed leaves the slot invisible, a crash after leaves the whole record
// durable (§4.1 insert ordering). The fingerprint goes to the mirror alone.
// It returns the slot taken, or -1 when the bucket is full.
//
// The slot is the mirror's lowest free one — the header line's slots first —
// and it may still be set in PM: a drop (segDrop) clears slots in the mirror
// alone. No record is stored under a committed bit, so then the bucket's
// bitmap — the mirror's, which has the bit clear — is persisted first. That
// store pays for the header line, which the insert stores to anyway, so the
// line is charged once and the detour costs one flush and one fence
// (bucket.stale_meta_persists).
//
// persist=false skips every persist: the mode for building an *unpublished*
// split sibling, whose durability comes from one whole-segment flush+fence
// right before the directory publishes it — a crash before that point rolls
// the whole sibling back, so nothing written into it needs individual
// ordering — and whose mirror, new, remembers no PM word. That mode takes the
// highest free slot instead, so the records a split copies leave the header
// line's slots to the inserts that follow the publish.
// All mutators below write through to the segment mirror after mutating PM;
// the caller's lock holds the bucket's version odd, so the store order within
// the window is immaterial.
func (t *Table) bucketInsertLocked(mir *segMirror, b pmem.Addr, bi int, fp uint8, kv pmem.KV, persist bool) int {
	p := t.pool
	m := mir.word(bi, mirBkMeta).Load()
	slot := metaFirstFree(m)
	if !persist {
		slot = metaLastFree(m)
	}
	if slot < 0 {
		return -1
	}
	var pm uint64 // PM's bitmap where a drop left it behind, else 0
	if persist {
		pm = mir.pmMeta[bi].Load()
	}
	hdrPaid := metaSlotUsed(pm, slot)
	if hdrPaid {
		p.StoreU64(b.Add(bkOffMeta), m&slotMask)
		p.Persist(b.Add(bkOffMeta), 8)
		t.filters.stalePersists.Inc()
	}
	ra := recordAddr(b, slot)
	// Value first, then key (a torn observation under a stale version never
	// pairs the new key with the old value); the first store pays for the
	// record's cacheline, the second shares it (records are 16-aligned and
	// never straddle a line). In persist=false mode — building an
	// unpublished split sibling — every store is quiet: the sibling's lines
	// are charged wholesale by the publish's one flush+fence per line, which
	// is also when they actually reach media.
	storeWord(p, ra.Add(8), kv.Value, persist && (slot >= hdrLineSlots || !hdrPaid))
	p.QuietStoreU64(ra, kv.Key)
	if persist {
		p.Persist(ra, pmem.RecordSize)
	}
	// The header line is a second line unless the record went into one of
	// the slots that share it, or the stale-slot detour has paid for it.
	m = metaSetSlot(m, slot)
	storeWord(p, b.Add(bkOffMeta), m&slotMask, persist && slot >= hdrLineSlots && !hdrPaid)
	if persist {
		p.Persist(b.Add(bkOffMeta), 8)
		if pm != 0 {
			mir.pmMeta[bi].Store(0)
		}
	}
	lo, hi := fpSet(mir.word(bi, mirBkFPLo).Load(), mir.word(bi, mirBkFPHi).Load(), slot, fp)
	mir.recWord(bi, slot, 1).Store(kv.Value)
	mir.recWord(bi, slot, 0).Store(kv.Key)
	mir.word(bi, mirBkFPLo).Store(lo)
	mir.word(bi, mirBkFPHi).Store(hi)
	mir.word(bi, mirBkMeta).Store(m)
	return slot
}

// bucketDeleteLocked unpublishes a slot. Clearing the bitmap bit is the
// whole operation; the record bytes and fingerprint become dead.
// persist=false is for unpublished split siblings (see bucketInsertLocked).
func bucketDeleteLocked(p *pmem.Pool, mir *segMirror, b pmem.Addr, bi int, slot int, persist bool) {
	m := metaClearSlot(mir.word(bi, mirBkMeta).Load(), slot)
	storeWord(p, b.Add(bkOffMeta), m&slotMask, persist)
	if persist {
		p.Persist(b.Add(bkOffMeta), 8)
		mir.metaPersisted(bi)
	}
	mir.word(bi, mirBkMeta).Store(m)
}

// bucketAddStash adds delta (±1) to the stash count of home bucket home, in
// the mirror alone: a record homed there entered or left the stash. It
// stores nothing to PM: the stash record's own bitmap bit commits it, and
// recovery recounts from the committed records. The caller holds home's
// lock or owns the segment.
func bucketAddStash(mir *segMirror, home, delta int) {
	w := mir.word(home, mirBkMeta)
	w.Store(w.Load() + uint64(delta)<<metaStashShift)
}
