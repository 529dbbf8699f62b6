package hashfn

import (
	"encoding/binary"
	"testing"
)

// knownVectors were computed with a direct port of Austin Appleby's
// canonical MurmurHash64A reference implementation (little-endian body
// reads).
var knownVectors = []struct {
	in   string
	seed uint64
	want uint64
}{
	{"", 0x0, 0x0},
	{"", 0xdeadbeefcafebabe, 0xf821aed61d95f50a},
	{"a", 0x0, 0x71717d2d36b6b11},
	{"ab", 0x0, 0x62be85b2fe53d1f8},
	{"abc", 0x0, 0x9cc9c33498a95efb},
	{"abcd", 0x0, 0xec1044c45cc5097a},
	{"abcde", 0x0, 0x1182974836d6dbb7},
	{"abcdef", 0x0, 0xb78e3425fc996779},
	{"abcdefg", 0x0, 0x241aa52b0a62005d},
	{"abcdefgh", 0x0, 0xafdb0257ff41aa98},
	{"abcdefghi", 0x0, 0xc9b9d84356146ac2},
	{"hello, world", 0x9747b28c, 0x6be890f23bce8167},
	{"The quick brown fox jumps over the lazy dog", 0xdeadbeefcafebabe, 0x64b0867268199a76},
}

func TestHash64KnownVectors(t *testing.T) {
	for _, c := range knownVectors {
		if got := Hash64([]byte(c.in), c.seed); got != c.want {
			t.Errorf("Hash64(%q, %#x) = %#x, want %#x", c.in, c.seed, got, c.want)
		}
		if got := murmur64A([]byte(c.in), c.seed); got != c.want {
			t.Errorf("murmur64A(%q, %#x) = %#x, want %#x", c.in, c.seed, got, c.want)
		}
	}
}

func TestHashU64MatchesHash64(t *testing.T) {
	// The fixed-length fast path must agree with hashing the 8 little-endian
	// bytes through the general loop (Hash64 itself dispatches them to
	// HashU64).
	known := []struct {
		x    uint64
		want uint64
	}{
		{0x0, 0x474563ee986d1ed2},
		{0x1, 0x70e5870eacf0f888},
		{0xffffffffffffffff, 0xa3bece0dc68a119c},
		{0x0123456789abcdef, 0x2f441f0c475a1c64},
	}
	for _, c := range known {
		if got := HashU64(c.x, DefaultSeed); got != c.want {
			t.Errorf("HashU64(%#x) = %#x, want %#x", c.x, got, c.want)
		}
	}
	for x := uint64(0); x < 1000; x++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		if g, w := HashU64(x, DefaultSeed), murmur64A(b[:], DefaultSeed); g != w {
			t.Fatalf("HashU64(%d) = %#x diverges from murmur64A = %#x", x, g, w)
		}
	}
}

func TestSplitBitAllocation(t *testing.T) {
	h := uint64(0xfedcba9876543210)
	p := Split(h)
	if p.FP != 0x10 {
		t.Errorf("fingerprint = %#x, want low byte %#x", p.FP, 0x10)
	}
	if got, want := p.BucketIndex(6), (h>>8)&63; got != want {
		t.Errorf("BucketIndex(6) = %d, want %d", got, want)
	}
	if got, want := p.DirIndex(8), h>>56; got != want {
		t.Errorf("DirIndex(8) = %#x, want %#x", got, want)
	}
	if got := p.DirIndex(0); got != 0 {
		t.Errorf("DirIndex(0) = %d, want 0", got)
	}
	// DepthBit(d) must be exactly the bit separating DirIndex(d) from
	// DirIndex(d+1).
	for d := uint8(0); d < 16; d++ {
		want := p.DirIndex(d+1) != p.DirIndex(d)<<1
		if got := p.DepthBit(d); got != want {
			t.Errorf("DepthBit(%d) = %v, want %v", d, got, want)
		}
	}
}

// TestSplitDistribution sanity-checks that the three bit fields carved out
// of one hash are each roughly uniform over sequential keys — the property
// the bucket/segment/directory layers all rely on.
func TestSplitDistribution(t *testing.T) {
	const n = 1 << 16
	const dirDepth = 4
	var fpHist [256]int
	var bucketHist [64]int
	var dirHist [1 << dirDepth]int
	for i := uint64(0); i < n; i++ {
		p := Split(HashU64(i, DefaultSeed))
		fpHist[p.FP]++
		bucketHist[p.BucketIndex(6)]++
		dirHist[p.DirIndex(dirDepth)]++
	}
	check := func(name string, hist []int, expect float64) {
		for i, c := range hist {
			if f := float64(c); f < expect/2 || f > expect*2 {
				t.Errorf("%s[%d] = %d, outside [%.0f, %.0f]", name, i, c, expect/2, expect*2)
			}
		}
	}
	check("fingerprint", fpHist[:], n/256.0)
	check("bucket", bucketHist[:], n/64.0)
	check("dir", dirHist[:], float64(n)/(1<<dirDepth))
}

// FuzzHash checks Hash64's 8-byte dispatch and the bit split of Parts. For
// any 8 bytes, HashU64 of their little-endian word equals the general loop,
// so the dispatch hashes every key as MurmurHash64A does; Hash64 equals the
// general loop at every length; and each of Parts' fields is the bit range
// the package doc assigns it.
func FuzzHash(f *testing.F) {
	for _, c := range knownVectors {
		f.Add([]byte(c.in), c.seed)
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80}, DefaultSeed)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) >= 8 {
			b := data[:8]
			if g, w := HashU64(binary.LittleEndian.Uint64(b), seed), murmur64A(b, seed); g != w {
				t.Fatalf("HashU64(le(%x), %#x) = %#x, murmur64A = %#x", b, seed, g, w)
			}
		}
		h := murmur64A(data, seed)
		if g := Hash64(data, seed); g != h {
			t.Fatalf("Hash64(%x, %#x) = %#x, murmur64A = %#x", data, seed, g, h)
		}
		p := Split(h)
		if p.Hash != h || p.FP != uint8(h) {
			t.Fatalf("Split(%#x) = %+v: FP is not the low byte", h, p)
		}
		if got, want := p.BucketIndex(6), (h>>8)&63; got != want {
			t.Fatalf("BucketIndex(6) of %#x = %d, want %d", h, got, want)
		}
		if got := p.DirIndex(0); got != 0 {
			t.Fatalf("DirIndex(0) of %#x = %d, want 0", h, got)
		}
		for d := uint8(1); d <= 56; d++ {
			if got, want := p.DirIndex(d), h>>(64-d); got != want {
				t.Fatalf("DirIndex(%d) of %#x = %#x, want %#x", d, h, got, want)
			}
		}
		for l := uint8(0); l < 56; l++ {
			if got, want := p.DepthBit(l), p.DirIndex(l+1)&1 == 1; got != want {
				t.Fatalf("DepthBit(%d) of %#x = %v, want %v", l, h, got, want)
			}
		}
	})
}
