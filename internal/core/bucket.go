package core

import (
	"math/bits"
	"runtime"

	"dash/internal/pmem"
)

// Bucket layer (§4.1–4.2). A bucket is one 256-byte PM block: a 32-byte
// header followed by 14 fixed-size records. The header packs everything a
// probe needs — version lock, allocation bitmap, per-slot fingerprints and
// the overflow ("stash") tracking metadata — into four 8-byte words so that
// every shared field is read and written with aligned atomic u64 accesses.
// That keeps optimistic lock-free readers within the Go memory model (and
// clean under -race) while preserving the paper's layout goals: the header
// lives in the bucket's first cacheline, so a negative probe costs one PM
// read, and the bitmap word is the single atomic commit point for inserts.
//
//	word 0 (off  0): version lock — seqlock counter, odd = write-locked
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

	bkOffVersion = 0
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
// Every lock/unlock pair also bumps the bucket's shadow version in the
// segment's DRAM mirror (segfilter.go) when one is attached: odd on
// acquisition, even again on release. All mirror write-through happens
// inside that odd window, so a mirror reader that observes a stable even
// shadow version (mirBucketSearch) holds a snapshot consistent with PM — the
// contract a seqlock reader of the PM version word itself would have. (A
// split's unpublished sibling is written through with no lock held at all:
// no reader can reach its mirror before the publish.) mir is nil only where
// recovery runs before the segment's mirror exists (the pre-mirror sweeps of
// lazyrec.go). bi is the bucket's index within its segment, the mirror's
// coordinate.

func lockBucket(p *pmem.Pool, mir *segMirror, b pmem.Addr, bi int) {
	va := b.Add(bkOffVersion)
	for {
		v := p.QuietLoadU64(va)
		if v&1 == 0 && p.CompareAndSwapU64(va, v, v+1) {
			if mir != nil {
				mir.word(bi, mirBkVersion).Add(1)
			}
			return
		}
		runtime.Gosched()
	}
}

func tryLockBucket(p *pmem.Pool, mir *segMirror, b pmem.Addr, bi int) bool {
	va := b.Add(bkOffVersion)
	v := p.QuietLoadU64(va)
	if v&1 == 0 && p.CompareAndSwapU64(va, v, v+1) {
		if mir != nil {
			mir.word(bi, mirBkVersion).Add(1)
		}
		return true
	}
	return false
}

// unlockBucket releases the lock and advances the version so that any
// optimistic reader whose scan overlapped the critical section retries. The
// lock word is deliberately never flushed: it is DRAM-meaning state that
// recovery resets wholesale after a crash. The store is quiet: the
// acquisition CAS charged the header line, which stays cache-hot for the
// whole critical section (write-side one-charge-per-line). The shadow
// version goes even first: once the PM version admits readers the mirror
// must already be readable.
func unlockBucket(p *pmem.Pool, mir *segMirror, b pmem.Addr, bi int) {
	if mir != nil {
		mir.word(bi, mirBkVersion).Add(1)
	}
	va := b.Add(bkOffVersion)
	p.QuietStoreU64(va, p.QuietLoadU64(va)+1)
}

// --- writer-side operations; the caller holds the bucket's lock ---
//
// Header words (meta, fingerprints) are accessed quietly throughout this
// section, reads and writes alike: the caller's lock acquisition CAS'd the
// version word, paying for the header cacheline once, and the line stays
// cache-hot until the unlock — real hardware absorbs the remaining header
// accesses and writes the line back once (one-charge-per-line; see
// pmem/quiet.go). Each record's first store still pays for its record
// line, as does every record-line dereference, and all flush/fence charges
// are untouched, so per-op media traffic remains honestly counted.
// (Recovery also calls some of these without holding locks; it is
// single-threaded and unbenchmarked, so the accounting shortfall there is
// irrelevant.)

// bucketFindLocked probes fingerprint-first: only slots whose one-byte
// fingerprint matches are dereferenced, bounding PM reads per probe (§4.1).
// The record comparison is representation-agnostic (record.go): inline
// slots compare the key word, indirect slots compare the stored full hash
// and then the log blob.
func bucketFindLocked(p *pmem.Pool, vl *pmem.VarLog, b pmem.Addr, pk *probeKey) int {
	m := p.QuietLoadU64(b.Add(bkOffMeta))
	lo := p.QuietLoadU64(b.Add(bkOffFPLo))
	hi := p.QuietLoadU64(b.Add(bkOffFPHi))
	for slot := 0; slot < slotsPerBucket; slot++ {
		if !metaSlotUsed(m, slot) || fpGet(lo, hi, slot) != pk.parts.FP {
			continue
		}
		if _, ok := recProbe(p, vl, recordAddr(b, slot), pk); ok {
			return slot
		}
	}
	return -1
}

func bucketFreeSlots(p *pmem.Pool, b pmem.Addr) int {
	return metaFreeSlots(p.QuietLoadU64(b.Add(bkOffMeta)))
}

// bucketInsertLocked writes the record, persists it, and only then publishes
// it by setting fingerprint and bitmap and persisting the header word. The
// single atomic bitmap store is the commit point: a crash before the header
// line is flushed leaves the slot invisible, a crash after leaves the whole
// record durable (§4.1 insert ordering).
//
// persist=false skips both persists: the mode for building an *unpublished*
// split sibling, whose durability comes from one whole-segment flush+fence
// right before the directory publishes it — a crash before that point rolls
// the whole sibling back, so nothing written into it needs individual
// ordering.
// All mutators below write through to the segment mirror (mir, nil-able)
// after mutating PM; the caller's lock holds the bucket's shadow version
// odd, so the store order within the window is immaterial.
func bucketInsertLocked(p *pmem.Pool, mir *segMirror, b pmem.Addr, bi int, fp uint8, kv pmem.KV, persist bool) bool {
	m := p.QuietLoadU64(b.Add(bkOffMeta))
	slot := metaFirstFree(m)
	if slot < 0 {
		return false
	}
	ra := recordAddr(b, slot)
	// Value first, then key (a torn observation under a stale version never
	// pairs the new key with the old value); the first store pays for the
	// record's cacheline, the second shares it (records are 16-aligned and
	// never straddle a line). In persist=false mode — building an
	// unpublished split sibling — even the first store is quiet: the
	// sibling's lines are charged wholesale by the publish's one
	// flush+fence per line, which is also when they actually reach media.
	if persist {
		p.StoreU64(ra.Add(8), kv.Value)
	} else {
		p.QuietStoreU64(ra.Add(8), kv.Value)
	}
	p.QuietStoreU64(ra, kv.Key)
	if persist {
		p.PersistKV(ra)
	}
	lo := p.QuietLoadU64(b.Add(bkOffFPLo))
	hi := p.QuietLoadU64(b.Add(bkOffFPHi))
	lo, hi = fpSet(lo, hi, slot, fp)
	p.QuietStoreU64(b.Add(bkOffFPLo), lo)
	p.QuietStoreU64(b.Add(bkOffFPHi), hi)
	p.QuietStoreU64(b.Add(bkOffMeta), metaSetSlot(m, slot))
	// Meta and fingerprint words share the bucket's first cacheline, so one
	// flush makes the publish atomic at crash granularity.
	if persist {
		p.Persist(b.Add(bkOffMeta), 24)
	}
	if mir != nil {
		mir.recWord(bi, slot, 1).Store(kv.Value)
		mir.recWord(bi, slot, 0).Store(kv.Key)
		mir.word(bi, mirBkFPLo).Store(lo)
		mir.word(bi, mirBkFPHi).Store(hi)
		mir.word(bi, mirBkMeta).Store(metaSetSlot(m, slot))
	}
	return true
}

// bucketDeleteLocked unpublishes a slot. Clearing the bitmap bit is the
// whole operation; the record bytes and fingerprint become dead.
// persist=false is for unpublished split siblings (see bucketInsertLocked).
func bucketDeleteLocked(p *pmem.Pool, mir *segMirror, b pmem.Addr, bi int, slot int, persist bool) {
	m := p.QuietLoadU64(b.Add(bkOffMeta))
	p.QuietStoreU64(b.Add(bkOffMeta), metaClearSlot(m, slot))
	if persist {
		p.Persist(b.Add(bkOffMeta), 8)
	}
	if mir != nil {
		mir.word(bi, mirBkMeta).Store(metaClearSlot(m, slot))
	}
}

// bucketTrackOverflow records in the home bucket that one of its keys went
// to stash bucket stashIdx: precisely (fingerprint + stash index) while a
// tracking slot is free, otherwise by bumping the overflow count.
// persist=false is for unpublished split siblings (see bucketInsertLocked).
func bucketTrackOverflow(p *pmem.Pool, mir *segMirror, b pmem.Addr, bi int, fp uint8, stashIdx int, persist bool) {
	m := p.QuietLoadU64(b.Add(bkOffMeta))
	for i := 0; i < maxOvSlots; i++ {
		if metaOvSlotUsed(m, i) {
			continue
		}
		hi := p.QuietLoadU64(b.Add(bkOffFPHi))
		p.QuietStoreU64(b.Add(bkOffFPHi), ovIdxSet(hi, i, stashIdx))
		p.QuietStoreU64(b.Add(bkOffMeta), metaSetOvFP(m, i, fp))
		if persist {
			p.Persist(b.Add(bkOffMeta), 24)
		}
		if mir != nil {
			mir.word(bi, mirBkFPHi).Store(ovIdxSet(hi, i, stashIdx))
			mir.word(bi, mirBkMeta).Store(metaSetOvFP(m, i, fp))
		}
		return
	}
	p.QuietStoreU64(b.Add(bkOffMeta), metaAddOvCount(m, +1))
	if persist {
		p.Persist(b.Add(bkOffMeta), 8)
	}
	if mir != nil {
		mir.word(bi, mirBkMeta).Store(metaAddOvCount(m, +1))
	}
}

// bucketUntrackOverflow undoes bucketTrackOverflow for a record leaving the
// stash: trackedSlot names the tracking slot when the record was tracked,
// or -1 when it was only counted.
func bucketUntrackOverflow(p *pmem.Pool, mir *segMirror, b pmem.Addr, bi int, trackedSlot int) {
	m := p.QuietLoadU64(b.Add(bkOffMeta))
	nm := metaAddOvCount(m, -1)
	if trackedSlot >= 0 {
		nm = metaClearOvFP(m, trackedSlot)
	}
	p.QuietStoreU64(b.Add(bkOffMeta), nm)
	p.Persist(b.Add(bkOffMeta), 8)
	if mir != nil {
		mir.word(bi, mirBkMeta).Store(nm)
	}
}

// metaFindTracked is the pure form of findTrackedSlot: the tracking slot in
// the given header words matching (fingerprint, stash index), or -1.
func metaFindTracked(m, hi uint64, fp uint8, stashIdx int) int {
	for i := 0; i < maxOvSlots; i++ {
		if metaOvSlotUsed(m, i) && metaOvFP(m, i) == fp && ovIdxGet(hi, i) == stashIdx {
			return i
		}
	}
	return -1
}

// findTrackedSlot returns the home bucket's tracking slot matching
// (fingerprint, stash index), or -1.
func findTrackedSlot(p *pmem.Pool, b pmem.Addr, fp uint8, stashIdx int) int {
	m := p.QuietLoadU64(b.Add(bkOffMeta))
	hi := p.QuietLoadU64(b.Add(bkOffFPHi))
	return metaFindTracked(m, hi, fp, stashIdx)
}
