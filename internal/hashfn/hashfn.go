// Package hashfn provides the 64-bit hash used throughout the repository,
// and — through Parts — the single authoritative split of that value's bits
// among the layers of the Dash-EH engine.
//
// The paper uses GCC's std::_Hash_bytes, which is MurmurHash-derived; this
// package implements MurmurHash64A, the same family, giving uniform
// high-quality 64-bit values. Dash consumes one hash value three ways (§4),
// each consumer drawing from a different bit range so the three uses are
// independent:
//
//		bit 63 ──────────────────────────────────────────────── bit 0
//		[ directory index ]............[ bucket index ][ fingerprint ]
//		  top `depth` bits               bits 8..8+B-1     bits 0..7
//
//	  - Fingerprint — the least-significant byte (bits 0..7). Kept in the
//	    header of a bucket's DRAM mirror (PM stores none) and compared before
//	    any record is read, so a probe dereferences a blob only on a 1/256
//	    false positive or a true hit.
//	  - Bucket index — the B bits directly above the fingerprint (bits
//	    8..8+B-1 for a segment with 2^B normal buckets; B = 6 in core).
//	  - Directory index — the most-significant `global depth` bits (the
//	    paper's §4.7 MSB scheme). MSB indexing keeps all directory entries
//	    covering one segment contiguous, which is what lets a split publish
//	    its new segment by flipping the upper half of a contiguous entry
//	    range, and lets a doubling duplicate entries pairwise.
//
// # Worked example
//
// Take h = Hash(k) = 0xC2A7_3F19_0000_54D6 with global depth 4 and 64
// buckets per segment (B = 6):
//
//		h = 1100 0010 1010 0111 0011 1111 0001 1001 ... 0101 0100 1101 0110
//		    ^^^^ directory                               ..54D6 = low bits
//
//	  - Fingerprint(h) = 0xD6 (the low byte).
//	  - BucketIndex(6) = (h >> 8) & 0x3F = 0x54 & 0x3F = 0x14 = bucket 20,
//	    with bucket 21 as the balanced-insert/probing neighbor.
//	  - DirIndex(4) = h >> 60 = 0xC = entry 12 of the 16-entry directory.
//
// If the segment at entry 12 has local depth 2, its pattern is the top 2
// bits, 0b11 = 3, and that segment owns directory entries 12..15. When it
// splits, keys follow DepthBit(2) — the third bit counted from the MSB end,
// i.e. LSB-numbered bit 61, here 0 — so this key stays in the old segment
// (new pattern 0b110, entries 12..13) rather than moving to the sibling
// (pattern 0b111, entries 14..15).
package hashfn

import "encoding/binary"

const (
	murmurM = 0xc6a4a7935bd1e995
	murmurR = 47
)

// DefaultSeed seeds every table unless a test overrides it.
const DefaultSeed uint64 = 0xdeadbeefcafebabe

// Hash64 computes MurmurHash64A of data with the given seed. An 8-byte
// input takes HashU64's straight-line code, so a uint64 key hashes the same
// and as fast through either API.
func Hash64(data []byte, seed uint64) uint64 {
	if len(data) == 8 {
		return HashU64(binary.LittleEndian.Uint64(data), seed)
	}
	return murmur64A(data, seed)
}

// murmur64A is MurmurHash64A's general loop, for any length.
func murmur64A(data []byte, seed uint64) uint64 {
	h := seed ^ uint64(len(data))*murmurM
	n := len(data)
	for ; n >= 8; n -= 8 {
		k := binary.LittleEndian.Uint64(data[len(data)-n:])
		k *= murmurM
		k ^= k >> murmurR
		k *= murmurM
		h ^= k
		h *= murmurM
	}
	tail := data[len(data)-n:]
	switch n {
	case 7:
		h ^= uint64(tail[6]) << 48
		fallthrough
	case 6:
		h ^= uint64(tail[5]) << 40
		fallthrough
	case 5:
		h ^= uint64(tail[4]) << 32
		fallthrough
	case 4:
		h ^= uint64(tail[3]) << 24
		fallthrough
	case 3:
		h ^= uint64(tail[2]) << 16
		fallthrough
	case 2:
		h ^= uint64(tail[1]) << 8
		fallthrough
	case 1:
		h ^= uint64(tail[0])
		h *= murmurM
	}
	h ^= h >> murmurR
	h *= murmurM
	h ^= h >> murmurR
	return h
}

// HashU64 is the fixed-length fast path: MurmurHash64A of the 8 bytes of x.
// HashU64(x, s) == Hash64(le(x), s) exactly — a uint64 key and its 8-byte
// little-endian encoding are the same key to every layer above, which is
// what lets the engine's uint64 and []byte APIs share one keyspace
// (Hash64 dispatches 8-byte inputs here; TestHashU64MatchesHash64 and
// FuzzHash check this code against the general loop).
func HashU64(x, seed uint64) uint64 {
	// 8*murmurM truncated to 64 bits; as an untyped constant expression it
	// would overflow uint64 and fail to compile.
	const lenMix = (8 * murmurM) & (1<<64 - 1)
	h := seed ^ lenMix
	k := x
	k *= murmurM
	k ^= k >> murmurR
	k *= murmurM
	h ^= k
	h *= murmurM
	h ^= h >> murmurR
	h *= murmurM
	h ^= h >> murmurR
	return h
}

// Fingerprint returns the one-byte fingerprint of a hash value: its least
// significant byte (§4.2).
func Fingerprint(h uint64) uint8 { return uint8(h) }

// SegmentIndex returns the directory index for h under the given global
// depth, using the most-significant bits (§4.7 MSB scheme).
func SegmentIndex(h uint64, depth uint8) uint64 {
	if depth == 0 {
		return 0
	}
	return h >> (64 - uint(depth))
}

// Parts is the agreed split of one 64-bit hash value among the layers of the
// Dash-EH engine. Every layer derives its bits through Parts so the bit
// allocation lives in exactly one place:
//
//	bit 63 ............................ bit 8  bit 7 ... bit 0
//	[ directory index (top `depth` bits) ]     [ fingerprint ]
//	          [ bucket index: bits 8..8+bucketBits ]
//
// The fingerprint comes from the least-significant byte, the bucket index
// from the bits just above it, and the directory index from the
// most-significant bits (the paper's MSB scheme, §4.7, which keeps the
// directory entries covering one segment contiguous — the property the
// crash-consistent split publish relies on). Directory and bucket bits
// overlap only when depth+bucketBits > 56, far beyond any realistic table.
type Parts struct {
	// Hash is the full 64-bit hash value.
	Hash uint64
	// FP is the one-byte fingerprint probed before any key comparison.
	FP uint8
}

// Split decomposes a hash value into its Parts.
func Split(h uint64) Parts { return Parts{Hash: h, FP: Fingerprint(h)} }

// BucketIndex returns the in-segment bucket index for a segment with
// 2^bucketBits normal buckets, taken from the bits directly above the
// fingerprint byte.
func (p Parts) BucketIndex(bucketBits uint) uint64 {
	return (p.Hash >> 8) & ((1 << bucketBits) - 1)
}

// DirIndex returns the directory index under the given global depth.
func (p Parts) DirIndex(depth uint8) uint64 { return SegmentIndex(p.Hash, depth) }

// DepthBit reports the value of the hash bit that decides which side of a
// split a key lands on when a segment of local depth `depth` splits: bit
// `depth` counted from the most-significant end. Keys with DepthBit false
// stay in the old segment (pattern P<<1), keys with DepthBit true move to
// the new segment (pattern P<<1|1).
func (p Parts) DepthBit(depth uint8) bool {
	return (p.Hash>>(63-uint(depth)))&1 == 1
}
