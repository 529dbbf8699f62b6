package core

import (
	"math/rand"
	"testing"
)

func TestMetaBitHelpers(t *testing.T) {
	var m uint64
	if metaFirstFree(m) != 0 || metaFreeSlots(m) != slotsPerBucket {
		t.Fatal("empty bucket should have all slots free")
	}
	for i := 0; i < slotsPerBucket; i++ {
		m = metaSetSlot(m, i)
	}
	if metaFirstFree(m) != -1 || metaFreeSlots(m) != 0 {
		t.Fatal("full bucket should have no free slots")
	}
	m = metaClearSlot(m, 5)
	if metaFirstFree(m) != 5 || !metaSlotUsed(m, 4) || metaSlotUsed(m, 5) {
		t.Fatal("clear slot 5 not reflected")
	}
	m = metaClearSlot(m, 9)
	if metaFirstFree(m) != 5 || metaFreeSlots(m) != 2 {
		t.Fatalf("slots 5 and 9 free: first %d, %d free", metaFirstFree(m), metaFreeSlots(m))
	}
	// The stash count above the bitmap is not slots.
	if metaFirstFree(m|0xFF<<metaStashShift) != 5 || metaFreeSlots(m|0xFF<<metaStashShift) != 2 {
		t.Fatal("the stash count reads as free slots")
	}
}

// TestBucketAddStash counts a home bucket's stash records up to the stash's
// capacity and back down: the count is exact at every step, and neither the
// bitmap below it nor any other header word moves.
func TestBucketAddStash(t *testing.T) {
	mir := &segMirror{}
	const home, bitmap = 5, 0x2A5A
	mir.word(home, mirBkMeta).Store(bitmap)
	mir.word(home, mirBkFPLo).Store(0x0102030405060708)
	mir.word(home, mirBkFPHi).Store(0x0000090A0B0C0D0E)
	const stashSlots = stashBuckets * slotsPerBucket
	for n := 1; n <= stashSlots; n++ {
		bucketAddStash(mir, home, +1)
		if m := mir.word(home, mirBkMeta).Load(); metaStashCount(m) != n || m&slotMask != bitmap || m>>(metaStashShift+8) != 0 {
			t.Fatalf("after %d spills: meta %#x, stash count %d", n, m, metaStashCount(m))
		}
	}
	for n := stashSlots - 1; n >= 0; n-- {
		bucketAddStash(mir, home, -1)
		if m := mir.word(home, mirBkMeta).Load(); metaStashCount(m) != n || m&slotMask != bitmap {
			t.Fatalf("after a stash delete: meta %#x, stash count %d, want %d", m, metaStashCount(m), n)
		}
	}
	if m := mir.word(home, mirBkMeta).Load(); m != bitmap {
		t.Fatalf("meta %#x with an empty stash, want the bitmap %#x alone", m, bitmap)
	}
	if mir.word(home, mirBkFPLo).Load() != 0x0102030405060708 || mir.word(home, mirBkFPHi).Load() != 0x0000090A0B0C0D0E {
		t.Fatal("the stash count moved a fingerprint word")
	}
	for bi := 0; bi < totalBuckets; bi++ {
		if bi != home && mir.word(bi, mirBkMeta).Load() != 0 {
			t.Fatalf("bucket %d's meta moved", bi)
		}
	}
}

func TestFingerprintWords(t *testing.T) {
	var lo, hi uint64
	for slot := 0; slot < slotsPerBucket; slot++ {
		lo, hi = fpSet(lo, hi, slot, uint8(slot+1))
	}
	for slot := 0; slot < slotsPerBucket; slot++ {
		if fpGet(lo, hi, slot) != uint8(slot+1) {
			t.Fatalf("fp slot %d = %d", slot, fpGet(lo, hi, slot))
		}
	}
}

// fpMatchesRef is fpMatches one slot at a time, through fpGet (the way
// Verify reads fingerprints).
func fpMatchesRef(lo, hi uint64, fp uint8) uint64 {
	var mask uint64
	for slot := 0; slot < slotsPerBucket; slot++ {
		if fpGet(lo, hi, slot) == fp {
			mask |= 1 << uint(slot)
		}
	}
	return mask
}

// fuzzSeedWords seeds the fuzz targets' corpora, so plain go test runs
// each on them: zero, inline key 0's word 0, bit 63 alone and all ones.
var fuzzSeedWords = []uint64{0, recZeroKeyWord, 1 << 63, ^uint64(0)}

// FuzzFPMatches: the one-compare fingerprint match equals the per-slot loop
// over fpGet for slots 0..13, and bytes 6 and 7 of hi, which are not slots,
// never set a bit.
func FuzzFPMatches(f *testing.F) {
	for _, lo := range fuzzSeedWords {
		for _, hi := range fuzzSeedWords {
			f.Add(lo, hi, uint8(lo))
			f.Add(lo, hi, uint8(hi>>48))
		}
	}
	f.Fuzz(func(t *testing.T, lo, hi uint64, fp uint8) {
		got := fpMatches(lo, hi, fp)
		if want := fpMatchesRef(lo, hi, fp); got != want {
			t.Fatalf("fpMatches(%#x, %#x, %#x) = %#x, the per-slot loop says %#x", lo, hi, fp, got, want)
		}
		if other := fpMatches(lo, hi^^uint64(1<<48-1), fp); other != got {
			t.Fatalf("fpMatches(%#x, %#x, %#x): bytes 6 and 7 of hi moved the result %#x to %#x", lo, hi, fp, got, other)
		}
	})
}

// TestFPMatches checks the one-compare fingerprint match against the
// per-slot loop for every fingerprint: over random words, over words built
// from the bytes a zero-byte test that lets a borrow cross bytes gets wrong
// (0x00, 0x80, 0xFF, the fingerprint and its neighbours), and with the
// fingerprint in every byte, hi's bytes 6 and 7 included — unused bytes,
// which are not slots and must never set a bit.
func TestFPMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	check := func(lo, hi uint64, fp uint8) {
		t.Helper()
		if got, want := fpMatches(lo, hi, fp), fpMatchesRef(lo, hi, fp); got != want {
			t.Fatalf("fpMatches(%#x, %#x, %#x) = %#x, the per-slot loop says %#x", lo, hi, fp, got, want)
		}
	}
	for v := 0; v < 256; v++ {
		fp := uint8(v)
		for i := 0; i < 200; i++ {
			check(rng.Uint64(), rng.Uint64(), fp)
		}
		pool := []uint8{0x00, 0x80, 0xFF, fp, fp ^ 0x80, fp ^ 1, fp + 1, fp - 1}
		word := func() uint64 {
			var w uint64
			for b := 0; b < 8; b++ {
				w |= uint64(pool[rng.Intn(len(pool))]) << (8 * b)
			}
			return w
		}
		for i := 0; i < 200; i++ {
			check(word(), word(), fp)
		}
		all := uint64(fp) * lowBytes
		check(all, all, fp)
		check(^all, all, fp)                           // only hi: slots 8..13, bytes 6 and 7
		check(^all, all&^(1<<48-1)|^all&(1<<48-1), fp) // only bytes 6 and 7: no slot
	}
}
