package core

import (
	"encoding/binary"

	"dash/internal/hashfn"
	"dash/internal/pmem"
)

// Record representation (§4.1's long-key scheme). A bucket slot is still
// one fixed 16-byte record — the layout, bitmap commit point and
// fingerprint probe are untouched — but the two words now carry one of two
// formats, discriminated by bit 63 of word 0:
//
//	inline   (bit 63 = 0): word 0 = 8-byte key, word 1 = 8-byte value —
//	         the original fast path, kept for uint64 records whose key has
//	         bit 63 clear.
//	indirect (bit 63 = 1): word 0 = blob address in the PM record log
//	         (16-aligned, so its low 4 bits are free) packed with a 4-bit
//	         key-length class; word 1 = the key's full 64-bit hash.
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
// Because an inline record always has bit 63 clear and a uint64 key with
// bit 63 set therefore cannot be stored inline, such keys route through
// the log as 8-byte blobs; both representations of an 8-byte key are
// found by every probe, so the uint64 and []byte APIs are two views of
// one keyspace (a uint64 key is its 8-byte little-endian encoding, and
// hashfn guarantees HashU64(k) == Hash64(le(k))).

const (
	recIndirectBit = uint64(1) << 63
	recClassMask   = uint64(0xF)
	recBlobMask    = ^(recIndirectBit | recClassMask)
)

func recIsIndirect(w0 uint64) bool { return w0&recIndirectBit != 0 }

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
	return hashfn.HashU64(kv.Key, seed)
}

// recSplitParts is recHash split into the engine's routing parts.
func recSplitParts(kv pmem.KV, seed uint64) hashfn.Parts {
	return hashfn.Split(recHash(kv, seed))
}

// probeKey is a representation-agnostic lookup key: precomputed hash parts
// plus the canonical key in whichever form the caller holds it. kb == nil
// is the uint64 fast path (canonically the 8-byte little-endian encoding
// of u); it materializes no byte slice — inline records compare words and
// indirect records compare through VarLog.KeyEqualsU64.
type probeKey struct {
	parts hashfn.Parts
	kb    []byte // canonical key bytes; nil for the uint64 fast path
	u     uint64 // the key when kb == nil
}

func (t *Table) probeU64(key uint64) probeKey {
	return probeKey{parts: t.parts(key), u: key}
}

func (t *Table) probeBytes(key []byte) probeKey {
	return probeKey{parts: hashfn.Split(hashfn.Hash64(key, t.seed)), kb: key}
}

// keyBytes returns the probe's canonical key bytes, using buf for the
// uint64 fast path.
func (pk *probeKey) keyBytes(buf *[8]byte) []byte {
	if pk.kb != nil {
		return pk.kb
	}
	binary.LittleEndian.PutUint64(buf[:], pk.u)
	return buf[:]
}

func (pk *probeKey) keyLen() int {
	if pk.kb != nil {
		return len(pk.kb)
	}
	return 8
}

// mirRecMatch reports whether the mirrored record words r hold the probe's
// key — the one record matcher, the hash-filter hook of the mirror's probe
// (segfilter.go). Inline records compare entirely in DRAM; an indirect
// candidate is pre-filtered by the mirrored full key hash and length class
// (also DRAM) and only then verified against the blob's key bytes, which
// remains a PM read: a 64-bit hash match is not key equality, and skipping
// the byte compare would return wrong records on hash collisions. A reader
// makes that one dereference with KeyEqualsPrefetch, charging the whole blob
// as a single streaming read, so the value bytes of an indirect match are
// already paid for (recValueU64 / recAppendValue); a writer wants no value
// and reads the key lines only (KeyEquals).
func mirRecMatch(vl *pmem.VarLog, r pmem.KV, pk *probeKey, writer bool) bool {
	if !recIsIndirect(r.Key) {
		if pk.kb == nil {
			return r.Key == pk.u
		}
		return len(pk.kb) == 8 && binary.LittleEndian.Uint64(pk.kb) == r.Key
	}
	if r.Value != pk.parts.Hash {
		return false
	}
	if c := recClass(r.Key); c != 0 && c != klenClass(pk.keyLen()) {
		return false
	}
	blob := recBlobAddr(r.Key)
	switch {
	case pk.kb == nil && writer:
		return vl.KeyEqualsU64(blob, pk.u)
	case pk.kb == nil:
		return vl.KeyEqualsPrefetchU64(blob, pk.u)
	case writer:
		return vl.KeyEquals(blob, pk.kb)
	}
	return vl.KeyEqualsPrefetch(blob, pk.kb)
}

// recValueU64 extracts the uint64 view of a record mirRecMatch matched. An
// indirect record's blob was charged whole by that match, so the extraction
// is quiet.
func recValueU64(vl *pmem.VarLog, kv pmem.KV) uint64 {
	if recIsIndirect(kv.Key) {
		return vl.QuietValueU64(recBlobAddr(kv.Key))
	}
	return kv.Value
}

// recAppendValue appends the value bytes of a record mirRecMatch matched to
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
