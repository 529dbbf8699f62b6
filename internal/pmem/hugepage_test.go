package pmem

import "testing"

// TestHugeRegions pins the region arithmetic of the page advice on every
// OS: a range maps to the 2 MiB regions holding its first and last byte,
// and an empty range to none.
func TestHugeRegions(t *testing.T) {
	const M2 = hugePageSize
	for _, c := range []struct {
		name           string
		start, n       uintptr
		wantLo, wantHi uintptr
	}{
		{"inside one region", 7*M2 + 4096, 18432, 7 * M2, 8 * M2},
		{"straddles a boundary", 7*M2 + M2 - 256, 512, 7 * M2, 9 * M2},
		{"exactly aligned", 7 * M2, 3 * M2, 7 * M2, 10 * M2},
		{"ends on a boundary", 7*M2 + 64, M2 - 64, 7 * M2, 8 * M2},
		{"empty", 7*M2 + 4096, 0, 7*M2 + 4096, 7*M2 + 4096},
	} {
		lo, hi := hugeRegions(c.start, c.n)
		if lo != c.wantLo || hi != c.wantHi {
			t.Errorf("%s: hugeRegions(%#x, %#x) = [%#x, %#x), want [%#x, %#x)", c.name, c.start, c.n, lo, hi, c.wantLo, c.wantHi)
		}
	}
}
