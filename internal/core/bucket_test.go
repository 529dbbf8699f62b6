package core

import (
	"math/rand"
	"testing"
)

func TestMetaBitHelpers(t *testing.T) {
	var m uint64
	if metaFirstFree(m) != 0 || metaLastFree(m) != slotsPerBucket-1 || metaFreeSlots(m) != slotsPerBucket {
		t.Fatal("empty bucket should have all slots free")
	}
	for i := 0; i < slotsPerBucket; i++ {
		m = metaSetSlot(m, i)
	}
	if metaFirstFree(m) != -1 || metaLastFree(m) != -1 || metaFreeSlots(m) != 0 {
		t.Fatal("full bucket should have no free slots")
	}
	m = metaClearSlot(m, 5)
	if metaFirstFree(m) != 5 || metaLastFree(m) != 5 || !metaSlotUsed(m, 4) || metaSlotUsed(m, 5) {
		t.Fatal("clear slot 5 not reflected")
	}
	m = metaClearSlot(m, 9)
	if metaFirstFree(m) != 5 || metaLastFree(m) != 9 {
		t.Fatalf("slots 5 and 9 free: first %d, last %d", metaFirstFree(m), metaLastFree(m))
	}
	// Tracking bits above the bitmap are not slots.
	if metaLastFree(metaAddOvCount(m, +1)) != 9 {
		t.Fatal("the overflow count reads as a free slot")
	}
}

func TestMetaOverflowHelpers(t *testing.T) {
	var m uint64
	for i := 0; i < maxOvSlots; i++ {
		if metaOvSlotUsed(m, i) {
			t.Fatalf("ov slot %d unexpectedly used", i)
		}
		m = metaSetOvFP(m, i, uint8(0xA0+i))
	}
	for i := 0; i < maxOvSlots; i++ {
		if !metaOvSlotUsed(m, i) || metaOvFP(m, i) != uint8(0xA0+i) {
			t.Fatalf("ov slot %d: used=%v fp=%#x", i, metaOvSlotUsed(m, i), metaOvFP(m, i))
		}
	}
	m = metaClearOvFP(m, 2)
	if metaOvSlotUsed(m, 2) || metaOvFP(m, 2) != 0 {
		t.Fatal("clear ov slot 2 not reflected")
	}
	// Overflow count saturates up and floors at zero.
	if metaOvCount(m) != 0 {
		t.Fatal("fresh ov count not zero")
	}
	m = metaAddOvCount(m, +1)
	m = metaAddOvCount(m, +1)
	if metaOvCount(m) != 2 {
		t.Fatalf("ov count = %d, want 2", metaOvCount(m))
	}
	m = metaAddOvCount(m, -1)
	m = metaAddOvCount(m, -1)
	m = metaAddOvCount(m, -1)
	if metaOvCount(m) != 0 {
		t.Fatalf("ov count = %d, want floor 0", metaOvCount(m))
	}
	// Count and slot bits must not clobber the allocation bitmap.
	if m&slotMask != 0 {
		t.Fatal("overflow ops leaked into allocation bitmap")
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
	// Stash indexes live in the high byte of hi and must not collide with
	// the slot-8..13 fingerprints.
	for i := 0; i < maxOvSlots; i++ {
		hi = ovIdxSet(hi, i, i%stashBuckets)
	}
	for i := 0; i < maxOvSlots; i++ {
		if ovIdxGet(hi, i) != i%stashBuckets {
			t.Fatalf("ov idx %d = %d", i, ovIdxGet(hi, i))
		}
	}
	for slot := 8; slot < slotsPerBucket; slot++ {
		if fpGet(lo, hi, slot) != uint8(slot+1) {
			t.Fatalf("ov idx writes clobbered fp slot %d", slot)
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

// TestFPMatches checks the one-compare fingerprint match against the
// per-slot loop for every fingerprint: over random words, over words built
// from the bytes a zero-byte test that lets a borrow cross bytes gets wrong
// (0x00, 0x80, 0xFF, the fingerprint and its neighbours), and with the
// fingerprint in every byte, hi's bytes 6 and 7 included — the stash indexes
// and the spare byte, which are not slots and must never set a bit.
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
