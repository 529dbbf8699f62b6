//go:build linux

package pmem

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestArenaHugePages: with transparent huge pages available, a
// 64 MiB pool whose every page was touched is backed by huge pages over at
// least half of its 2 MiB-aligned interior (/proc/self/smaps'
// AnonHugePages), and a pool smaller than one 2 MiB region, whose region
// reaches past it on both sides, still works.
func TestArenaHugePages(t *testing.T) {
	if THPMode() == "never" {
		t.Skip("transparent huge pages not available")
	}
	p, err := NewPool(Options{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(4096); off < p.Size(); off += 4096 {
		p.QuietStoreU64(Addr(off), off)
	}
	start := uintptr(unsafe.Pointer(unsafe.SliceData(p.data)))
	lo, hi := (start+hugePageSize-1)&^(hugePageSize-1), (start+uintptr(p.Size()))&^(hugePageSize-1)
	got, err := AnonHugeBytes([][2]uintptr{{lo, hi}})
	if err != nil {
		t.Fatal(err)
	}
	if got < uint64(hi-lo)/2 {
		t.Errorf("AnonHugePages covers %d MiB of the arena's %d MiB aligned interior, want at least half", got>>20, (hi-lo)>>20)
	}
	if last := uint64(hi-start) - 4096; p.QuietLoadU64(Addr(last)) != last {
		t.Errorf("arena word at %#x reads %d after the advice, want %d", last, p.QuietLoadU64(Addr(last)), last)
	}
	runtime.KeepAlive(p)

	small, err := NewPool(Options{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a := Addr(small.Size() - 8)
	small.StoreU64(a, 42)
	small.Persist(a, 8)
	if v := small.LoadU64(a); v != 42 {
		t.Errorf("small pool reads %d, want 42", v)
	}
}

// TestAdviseKeepsNeighbours: the advice reaches past its object into the
// 2 MiB regions around it, which hold other live objects, and a collapse of
// those regions leaves every byte of them as it was; so does a second
// call, made after the first one's closing MADV_NOHUGEPAGE.
func TestAdviseKeepsNeighbours(t *testing.T) {
	if THPMode() == "never" {
		t.Skip("transparent huge pages not available")
	}
	objs := make([][]uint64, 512)
	for i := range objs {
		objs[i] = make([]uint64, 2048) // 16 KiB each: neighbours in the heap
		for j := range objs[i] {
			objs[i][j] = uint64(i)<<32 | uint64(j)
		}
	}
	for round := 0; round < 2; round++ {
		b := make([]byte, 16<<10)
		AdviseHugePages(b)
		runtime.GC() // a pointer made outside b would fail the collector's scan
		for i, o := range objs {
			for j, v := range o {
				if v != uint64(i)<<32|uint64(j) {
					t.Fatalf("round %d: object %d word %d reads %#x after advising a neighbour", round, i, j, v)
				}
			}
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("round %d: advised object byte %d reads %d, want 0", round, i, v)
			}
		}
		runtime.KeepAlive(b)
	}
}
