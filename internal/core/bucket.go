package core

import (
	"math/bits"
	"runtime"

	"dash/internal/pmem"
)

// Bucket layer (§4.1–4.2). A bucket is one 256-byte PM block: a 32-byte
// header followed by 14 fixed-size records. The header packs everything a
// probe needs — allocation bitmap, per-slot fingerprints and the overflow
// ("stash") tracking metadata — into 8-byte words so that every shared field
// is read and written with aligned atomic u64 accesses, preserving the
// paper's layout goals: the header lives in the bucket's first cacheline, so
// publishing a record is one line, and the bitmap word is the single atomic
// commit point for inserts. The segment's DRAM mirror (segfilter.go) carries
// the same words plus the bucket's version lock; every probe, a reader's or
// a writer's, runs there.
//
//	word 0 (off  0): reserved — never read, any value is legal (images
//	                 from when the version lock lived here carry one)
//	word 1 (off  8): bits 0..13  allocation bitmap (slot in use)
//	                 bits 16..19 overflow-slot bitmap
//	                 bits 24..31 overflow count (untracked stash spills)
//	                 bits 32..63 overflow fingerprints [4]uint8
//	word 2 (off 16): fingerprints of slots 0..7
//	word 3 (off 24): bytes 0..5 fingerprints of slots 8..13
//	                 byte 6: overflow stash indexes, 2 bits per overflow slot
//	records (off 32): 14 × 16-byte records, each either an inline 8B/8B KV
//	                 or an indirect (log blob address | key-length class,
//	                 full key hash) pair — see record.go
//
// The two record words are still stored value-word-first and probed
// fingerprint-first whatever the representation; word 0's bit 63
// discriminates inline from indirect, and every publish/commit path below
// is representation-blind.
const (
	bucketSize     = 256
	slotsPerBucket = 14

	bkOffVersion = 0 // reserved word: names it for the tests that prove it inert
	bkOffMeta    = 8
	bkOffFPLo    = 16
	bkOffFPHi    = 24
	bkOffRecords = 32

	// maxOvSlots is how many stash spills a bucket tracks precisely by
	// fingerprint; further spills only bump the overflow count and force a
	// full stash scan on lookup (§4.2).
	maxOvSlots = 4

	slotMask = (1 << slotsPerBucket) - 1
)

// --- pure bit helpers on the packed header words (unit-testable) ---

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

func metaOvSlotUsed(m uint64, i int) bool { return m&(1<<uint(16+i)) != 0 }
func metaOvFP(m uint64, i int) uint8      { return uint8(m >> uint(32+8*i)) }
func metaSetOvFP(m uint64, i int, fp uint8) uint64 {
	m |= 1 << uint(16+i)
	m &^= 0xFF << uint(32+8*i)
	return m | uint64(fp)<<uint(32+8*i)
}
func metaClearOvFP(m uint64, i int) uint64 {
	return m &^ (1<<uint(16+i) | 0xFF<<uint(32+8*i))
}
func metaOvCount(m uint64) uint64 { return (m >> 24) & 0xFF }
func metaAddOvCount(m uint64, delta int) uint64 {
	c := metaOvCount(m)
	if delta > 0 {
		if c < 0xFF {
			c++
		}
	} else if c > 0 {
		c--
	}
	return m&^(0xFF<<24) | c<<24
}

func fpGet(lo, hi uint64, slot int) uint8 {
	if slot < 8 {
		return uint8(lo >> uint(8*slot))
	}
	return uint8(hi >> uint(8*(slot-8)))
}

// fpMatches returns the slots whose fingerprint in (lo, hi) is fp, bit s for
// slot s, with no per-slot loop: a byte of w ^ fp·0x0101…01 is zero exactly
// where the slot matches (zeroBytes). Bytes 6 and 7 of hi — the stash
// indexes and a spare byte — are not slots and never set a bit.
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

func ovIdxGet(hi uint64, i int) int { return int(hi>>uint(48+2*i)) & 3 }
func ovIdxSet(hi uint64, i, idx int) uint64 {
	sh := uint(48 + 2*i)
	return hi&^(3<<sh) | uint64(idx&3)<<sh
}

func recordAddr(b pmem.Addr, slot int) pmem.Addr {
	return b.Add(uint64(bkOffRecords + pmem.RecordSize*slot))
}

// --- version lock (seqlock: even = free, odd = write-locked) ---
//
// The bucket lock is the version word of the bucket's entry in the segment's
// DRAM mirror (segfilter.go): odd while a writer holds it, even again — and
// one higher — on release. A lock is state only a running process can hold,
// so it lives only where a running process looks; PM word 0 of every bucket
// is reserved (nobody reads it, old images may carry any value there). All
// PM mutation and all mirror write-through of a bucket happen inside that odd
// window, so a mirror reader that observes a stable even version
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
// and tracking slots are set — is read from the mirror, which is exact by
// write-through: PM is only stored to. Charging follows the tree's
// one-charge-per-line rule (pmem/access.go) with nothing paid in advance: the
// first store an operation makes to a line is a charged store, further
// stores to that line before its flush are quiet — real hardware absorbs
// them in the cache and writes the line back once. A bucket's header line
// also holds records 0 and 1, so a record store into one of those slots has
// paid for the header words that publish it. All flush/fence charges are
// untouched, so per-op media traffic remains honestly counted.

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
// it by setting fingerprint and bitmap and persisting the header word. The
// single atomic bitmap store is the commit point: a crash before the header
// line is flushed leaves the slot invisible, a crash after leaves the whole
// record durable (§4.1 insert ordering).
//
// The slot is the mirror's lowest free one, and it may still be set in PM: a
// drop (segDrop) clears slots in the mirror alone. No record is stored under
// a committed bit, so then the bucket's meta word — the mirror's, which has
// the bit clear — is persisted first. That store pays for the header line,
// which the insert stores to anyway, so the line is charged once and the
// detour costs one flush and one fence (bucket.stale_meta_persists).
//
// persist=false skips every persist: the mode for building an *unpublished*
// split sibling, whose durability comes from one whole-segment flush+fence
// right before the directory publishes it — a crash before that point rolls
// the whole sibling back, so nothing written into it needs individual
// ordering — and whose mirror, new, remembers no PM word.
// All mutators below write through to the segment mirror after mutating PM;
// the caller's lock holds the bucket's version odd, so the store order within
// the window is immaterial.
func (t *Table) bucketInsertLocked(mir *segMirror, b pmem.Addr, bi int, fp uint8, kv pmem.KV, persist bool) bool {
	p := t.pool
	m := mir.word(bi, mirBkMeta).Load()
	slot := metaFirstFree(m)
	if slot < 0 {
		return false
	}
	var pm uint64 // PM's meta word where a drop left it behind, else 0
	if persist {
		pm = mir.pmMeta[bi].Load()
	}
	hdrPaid := metaSlotUsed(pm, slot)
	if hdrPaid {
		p.StoreU64(b.Add(bkOffMeta), m)
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
	storeWord(p, ra.Add(8), kv.Value, persist && (slot >= 2 || !hdrPaid))
	p.QuietStoreU64(ra, kv.Key)
	if persist {
		p.Persist(ra, pmem.RecordSize)
	}
	lo, hi := fpSet(mir.word(bi, mirBkFPLo).Load(), mir.word(bi, mirBkFPHi).Load(), slot, fp)
	// The header line is a second line unless the record went into slot 0
	// or 1, which live in it, or the stale-slot detour has paid for it.
	storeWord(p, b.Add(bkOffFPLo), lo, persist && slot >= 2 && !hdrPaid)
	m = metaSetSlot(m, slot)
	p.QuietStoreU64(b.Add(bkOffFPHi), hi)
	p.QuietStoreU64(b.Add(bkOffMeta), m)
	// Meta and fingerprint words share the bucket's first cacheline, so one
	// flush makes the publish atomic at crash granularity.
	if persist {
		p.Persist(b.Add(bkOffMeta), 24)
		if pm != 0 {
			mir.pmMeta[bi].Store(0)
		}
	}
	mir.recWord(bi, slot, 1).Store(kv.Value)
	mir.recWord(bi, slot, 0).Store(kv.Key)
	mir.word(bi, mirBkFPLo).Store(lo)
	mir.word(bi, mirBkFPHi).Store(hi)
	mir.word(bi, mirBkMeta).Store(m)
	return true
}

// bucketDeleteLocked unpublishes a slot. Clearing the bitmap bit is the
// whole operation; the record bytes and fingerprint become dead.
// persist=false is for unpublished split siblings (see bucketInsertLocked).
func bucketDeleteLocked(p *pmem.Pool, mir *segMirror, b pmem.Addr, bi int, slot int, persist bool) {
	m := metaClearSlot(mir.word(bi, mirBkMeta).Load(), slot)
	storeWord(p, b.Add(bkOffMeta), m, persist)
	if persist {
		p.Persist(b.Add(bkOffMeta), 8)
		mir.metaPersisted(bi)
	}
	mir.word(bi, mirBkMeta).Store(m)
}

// bucketTrackOverflow records in the home bucket that one of its keys went
// to stash bucket stashIdx: precisely (fingerprint + stash index) while a
// tracking slot is free, otherwise by bumping the overflow count.
// persist=false is for unpublished split siblings (see bucketInsertLocked).
func bucketTrackOverflow(p *pmem.Pool, mir *segMirror, b pmem.Addr, bi int, fp uint8, stashIdx int, persist bool) {
	m := mir.word(bi, mirBkMeta).Load()
	for i := 0; i < maxOvSlots; i++ {
		if metaOvSlotUsed(m, i) {
			continue
		}
		hi := ovIdxSet(mir.word(bi, mirBkFPHi).Load(), i, stashIdx)
		m = metaSetOvFP(m, i, fp)
		storeWord(p, b.Add(bkOffFPHi), hi, persist)
		p.QuietStoreU64(b.Add(bkOffMeta), m)
		if persist {
			p.Persist(b.Add(bkOffMeta), 24)
			mir.metaPersisted(bi)
		}
		mir.word(bi, mirBkFPHi).Store(hi)
		mir.word(bi, mirBkMeta).Store(m)
		return
	}
	m = metaAddOvCount(m, +1)
	storeWord(p, b.Add(bkOffMeta), m, persist)
	if persist {
		p.Persist(b.Add(bkOffMeta), 8)
		mir.metaPersisted(bi)
	}
	mir.word(bi, mirBkMeta).Store(m)
}

// bucketUntrackOverflow undoes bucketTrackOverflow for a record leaving the
// stash: trackedSlot names the tracking slot when the record was tracked,
// or -1 when it was only counted.
func bucketUntrackOverflow(p *pmem.Pool, mir *segMirror, b pmem.Addr, bi int, trackedSlot int) {
	m := mir.word(bi, mirBkMeta).Load()
	nm := metaAddOvCount(m, -1)
	if trackedSlot >= 0 {
		nm = metaClearOvFP(m, trackedSlot)
	}
	p.StoreU64(b.Add(bkOffMeta), nm)
	p.Persist(b.Add(bkOffMeta), 8)
	mir.metaPersisted(bi)
	mir.word(bi, mirBkMeta).Store(nm)
}

// metaFindTracked returns the tracking slot in a home bucket's header words
// (m the meta word, hi the fingerprint word carrying the stash indexes)
// matching (fingerprint, stash index), or -1.
func metaFindTracked(m, hi uint64, fp uint8, stashIdx int) int {
	for i := 0; i < maxOvSlots; i++ {
		if metaOvSlotUsed(m, i) && metaOvFP(m, i) == fp && ovIdxGet(hi, i) == stashIdx {
			return i
		}
	}
	return -1
}
