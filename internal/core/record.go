package core

import (
	"encoding/binary"

	"dash/internal/epoch"
	"dash/internal/hashfn"
	"dash/internal/pmem"
)

// Record representation (§4.1's long-key scheme). A bucket slot is one
// fixed 16-byte record; its word 0 is non-zero exactly while the slot is
// live (a PM bucket keeps no bitmap: bucket.go), and the two words carry one
// of two formats, discriminated by bit 63 of word 0:
//
//	inline   (bit 63 = 0): word 0 = the 8-byte key (recZeroKeyWord for key
//	         0), word 1 = the 8-byte value — the fast path, for uint64
//	         records whose key has bit 63 clear and is not recZeroKeyWord
//	         itself (recInlineKey).
//	indirect (bit 63 = 1): word 0 = blob address in the PM record log
//	         (16-aligned, so its low 4 bits are free) packed with a 4-bit
//	         key-length class; word 1 = the key's full 64-bit hash.
//
// Key 0 is the one key whose word 0 would be zero, an empty slot, so it
// trades words with recZeroKeyWord: key 0 stays inline under that word, and
// the key recZeroKeyWord goes through the log like a bit-63 key. Every other
// inline key is stored as itself. Only recInlineWord and recWordKey know the
// encoding.
//
// The indirect word 1 is what keeps every routing decision — split
// migration, sweeps, recovery — free of blob dereferences: a record's
// hash parts come from the record words alone (recSplitParts), so resize
// cost is independent of record size. Lookups dereference a blob only
// after the one-byte fingerprint AND the full stored hash match, i.e.
// essentially only on true hits.
//
// The key-length class is an extra pre-dereference filter: the exact key
// length when it fits in 4 bits (1..15), 0 meaning "16 bytes or longer".
//
// Because an inline record always has bit 63 clear, a uint64 key with bit
// 63 set cannot be stored inline and routes through the log as an 8-byte
// blob; both representations of an 8-byte key are found by every probe. The
// uint64 API is a view of the []byte one: a uint64 key is its 8-byte
// little-endian encoding, every probe carries that encoding, and the uint64
// mutators encode key and value and call their []byte twins (hashfn hashes
// an 8-byte input with HashU64's code, so HashU64(k) == Hash64(le(k))).

const (
	recIndirectBit = uint64(1) << 63
	recClassMask   = uint64(0xF)
	recBlobMask    = ^(recIndirectBit | recClassMask)

	// recZeroKeyWord is inline key 0's word 0: bit 63 clear, so the word
	// stays inline, and non-zero, so key 0 stays live.
	recZeroKeyWord = uint64(0x5BD1E9955BD1E995)
)

func recIsIndirect(w0 uint64) bool { return w0&recIndirectBit != 0 }

// recInlineKey reports whether a uint64 key is stored inline: its bit 63 is
// clear, and it is not recZeroKeyWord, key 0's word 0.
func recInlineKey(key uint64) bool { return key&recIndirectBit == 0 && key != recZeroKeyWord }

// recInlineWord is an inline record's word 0 for key.
func recInlineWord(key uint64) uint64 {
	if key == 0 {
		return recZeroKeyWord
	}
	return key
}

// recWordKey is the key of an inline record whose word 0 is w0.
func recWordKey(w0 uint64) uint64 {
	if w0 == recZeroKeyWord {
		return 0
	}
	return w0
}

// recPack builds an indirect record's word 0 from a blob address and the
// key length.
func recPack(blob pmem.Addr, klen int) uint64 {
	return recIndirectBit | uint64(blob) | uint64(klenClass(klen))
}

func recBlobAddr(w0 uint64) pmem.Addr { return pmem.Addr(w0 & recBlobMask) }

func recClass(w0 uint64) int { return int(w0 & recClassMask) }

// klenClass compresses a key length into the 4-bit slot-word class: the
// exact length when it fits, else 0 ("long").
func klenClass(klen int) int {
	if klen < 16 {
		return klen
	}
	return 0
}

// recHash returns the full hash of the record held in kv: read from the
// record itself for indirect records, recomputed from the inline key
// otherwise. This is the routing contract that keeps splits and sweeps
// from ever dereferencing blobs.
func recHash(kv pmem.KV, seed uint64) uint64 {
	if recIsIndirect(kv.Key) {
		return kv.Value
	}
	return hashfn.HashU64(recWordKey(kv.Key), seed)
}

// recSplitParts is recHash split into the engine's routing parts.
func recSplitParts(kv pmem.KV, seed uint64) hashfn.Parts {
	return hashfn.Split(recHash(kv, seed))
}

// probeKey is a lookup key: its canonical bytes plus their precomputed
// hash parts. A uint64 key probes as its 8-byte little-endian encoding, held
// by the caller on its stack; an inline record matches an 8-byte key by word.
//
// It also carries its operation's epoch guard, entered lazily (pin): em is
// the table's manager, which opBegin sets — a probe no operation began, a
// test's look into a quiet table, takes no guard — and guard is the slot the
// guard announces in, plus one (0: none held), which opEnd releases. It is
// an index, not an epoch.Guard: a Guard stored here moves every caller's
// key buffer to the heap, an allocation per operation.
type probeKey struct {
	parts hashfn.Parts
	kb    []byte
	em    *epoch.Manager
	guard int
}

func (t *Table) probeBytes(key []byte) probeKey {
	return probeKey{parts: hashfn.Split(hashfn.Hash64(key, t.seed)), kb: key}
}

// pin is called by the probe just before it dereferences the blob of an
// indirect candidate: w0 is the word 0 it loaded from slot slot of mirrored
// bucket bi. It reports whether the blob is safe to read until the
// operation ends. An operation that holds its guard already loaded w0 after
// announcing itself, so the blob cannot be freed under it. Otherwise pin
// enters the guard and re-checks the slot: its bitmap bit, then its word 0.
// A set bit says the slot held a live record after the announcement, and a
// word 0 still equal to w0 is that record's or was stored since — every
// store of a blob address into a slot publishes a live blob — so the blob w0
// names was live after the announcement: its unpublish, and the retire that
// follows it, come later, and the free waits for this guard. A changed slot
// means the blob may have been retired, even freed and reused, before the
// announcement: pin returns false and the probe rescans, now under the
// guard. The bit matters as much as the word: a delete and a split's drop
// clear the bit and leave word 0 as it was. So does the order: a bit read
// after word 0 could belong to a record inserted into the slot after w0's
// was deleted.
func (pk *probeKey) pin(mir *segMirror, bi, slot int, w0 uint64) bool {
	if pk.guard != 0 || pk.em == nil {
		return true
	}
	pk.guard = pk.em.EnterSlot() + 1
	return metaSlotUsed(mir.word(bi, mirBkMeta).Load(), slot) && mir.recWord(bi, slot, 0).Load() == w0
}

// mirRecFilter reports whether the mirrored record words r can hold the
// probe's key — the DRAM half of the one record matcher, the hash-filter
// hook of the mirror's probe (mirBucketSearch holds the other half). An
// inline record is decided here, entirely in DRAM. An indirect candidate is
// pre-filtered by the mirrored full key hash and length class (also DRAM);
// passing, it is only a candidate, verified against the blob's key bytes,
// which remains a PM read: a 64-bit hash match is not key equality, and
// skipping the byte compare would return wrong records on hash collisions.
// A reader makes that one dereference charging the whole blob as a single
// streaming read, so the value bytes of an indirect match are already paid
// for (recValueU64 / recAppendValue); a writer wants no value and reads the
// key lines only.
func mirRecFilter(r pmem.KV, pk *probeKey) bool {
	if !recIsIndirect(r.Key) {
		return len(pk.kb) == 8 && binary.LittleEndian.Uint64(pk.kb) == recWordKey(r.Key)
	}
	if r.Value != pk.parts.Hash {
		return false
	}
	c := recClass(r.Key)
	return c == 0 || c == klenClass(len(pk.kb))
}

// recValueU64 extracts the uint64 view of a record the probe matched. An
// indirect record's blob was charged whole by that match, and is still held
// by the guard the match entered, so the extraction is quiet.
func recValueU64(vl *pmem.VarLog, kv pmem.KV) uint64 {
	if recIsIndirect(kv.Key) {
		return vl.QuietValueU64(recBlobAddr(kv.Key))
	}
	return kv.Value
}

// recAppendValue appends the value bytes of a record the probe matched to
// dst (the little-endian encoding for inline records); quiet like
// recValueU64.
func recAppendValue(vl *pmem.VarLog, dst []byte, kv pmem.KV) []byte {
	if recIsIndirect(kv.Key) {
		return vl.QuietAppendValue(dst, recBlobAddr(kv.Key))
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], kv.Value)
	return append(dst, buf[:]...)
}
